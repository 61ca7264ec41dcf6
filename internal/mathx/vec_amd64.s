#include "textflag.h"

// Byte offsets of the constant-table rows; the row numbers are the t*
// constants of vec_amd64.go.
#define T_ABS    (0*32)
#define T_SIGN   (1*32)
#define T_CLAMP  (2*32)
#define T_LOG2E  (3*32)
#define T_NLN2HI (4*32)
#define T_NLN2LO (5*32)
#define T_ONE    (6*32)
#define T_TWO    (7*32)
#define T_EXPHI  (8*32)
#define T_EXPLO  (9*32)
#define T_BIAS   (10*32)
#define T_EXPC   (11*32)
#define T_ATC    (25*32)

// EXPREDUCED: x in Y1 -> k in Y2, exp(x - k ln2) in Y3; Y1 is left
// holding r. Mirrors expReduced in vec.go. VROUNDPD $8 rounds to nearest
// even without raising the precision exception.
#define EXPREDUCED \
	VMULPD      T_LOG2E(R8), Y1, Y2   \
	VROUNDPD    $8, Y2, Y2            \
	VFMADD231PD T_NLN2HI(R8), Y2, Y1  \
	VFMADD231PD T_NLN2LO(R8), Y2, Y1  \
	VMOVUPD     T_EXPC(R8), Y3        \
	VFMADD213PD (T_EXPC+1*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+2*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+3*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+4*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+5*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+6*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+7*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+8*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+9*32)(R8), Y1, Y3  \
	VFMADD213PD (T_EXPC+10*32)(R8), Y1, Y3 \
	VFMADD213PD (T_EXPC+11*32)(R8), Y1, Y3 \
	VFMADD213PD (T_EXPC+12*32)(R8), Y1, Y3 \
	VFMADD213PD (T_EXPC+13*32)(R8), Y1, Y3

// func logisticAVX2(eta, l, q []float64, tab *[tabLen][4]float64)
// len(eta) is a positive multiple of 4. Mirrors logisticGo in vec.go.
TEXT ·logisticAVX2(SB), NOSPLIT, $0-80
	MOVQ eta_base+0(FP), SI
	MOVQ eta_len+8(FP), CX
	MOVQ l_base+24(FP), DI
	MOVQ q_base+48(FP), DX
	MOVQ tab+72(FP), R8
	VXORPD Y15, Y15, Y15
	VMOVUPD T_ONE(R8), Y14

loop:
	VMOVUPD (SI), Y0                  // eta
	VANDPD  T_ABS(R8), Y0, Y1
	VMINPD  T_CLAMP(R8), Y1, Y1       // a = |eta| < 708 ? |eta| : 708
	VORPD   T_SIGN(R8), Y1, Y1        // x = -a
	EXPREDUCED
	VCVTPD2DQY Y2, X4                 // z = p * 2^k through the exponent field
	VPMOVSXDQ  X4, Y4
	VPSLLQ     $52, Y4, Y4
	VPADDQ     Y4, Y3, Y3
	VADDPD  T_TWO(R8), Y3, Y5
	VDIVPD  Y5, Y3, Y5                // t = z / (2 + z)
	VADDPD  Y14, Y3, Y6
	VDIVPD  Y6, Y14, Y6               // inv = 1 / (1 + z)
	VMULPD  Y5, Y5, Y7                // s = t * t
	VMOVUPD T_ATC(R8), Y8
	VFMADD213PD (T_ATC+1*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+2*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+3*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+4*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+5*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+6*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+7*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+8*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+9*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+10*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+11*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+12*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+13*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+14*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+15*32)(R8), Y7, Y8
	VFMADD213PD (T_ATC+16*32)(R8), Y7, Y8
	VMAXPD  Y15, Y0, Y9               // m = eta > 0 ? eta : 0
	VFMADD231PD Y5, Y8, Y9            // l = t*poly + m
	VMULPD  Y6, Y3, Y10               // z * inv
	VBLENDVPD Y0, Y10, Y6, Y10        // q = signbit(eta) ? z*inv : inv
	VCMPPD  $3, Y0, Y0, Y11           // all ones where eta is NaN
	VORPD   Y11, Y9, Y9
	VORPD   Y11, Y10, Y10
	VMOVUPD Y9, (DI)
	VMOVUPD Y10, (DX)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, CX
	JNZ  loop
	VZEROUPPER
	RET

// func expAVX2(dst, x []float64, tab *[tabLen][4]float64)
// len(x) is a positive multiple of 4. Mirrors expGo in vec.go.
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ tab+48(FP), R8

exploop:
	VMOVUPD (SI), Y0
	VMINPD  T_EXPHI(R8), Y0, Y1       // x < 710 ? x : 710
	VMAXPD  T_EXPLO(R8), Y1, Y1       // x > -746 ? x : -746
	EXPREDUCED
	VCVTPD2DQY Y2, X4                 // k
	VPSRAD  $1, X4, X5                // k1 = k >> 1
	VPSUBD  X5, X4, X4                // k2 = k - k1
	VPMOVSXDQ X5, Y5
	VPADDQ  T_BIAS(R8), Y5, Y5
	VPSLLQ  $52, Y5, Y5               // 2^k1
	VPMOVSXDQ X4, Y4
	VPADDQ  T_BIAS(R8), Y4, Y4
	VPSLLQ  $52, Y4, Y4               // 2^k2
	VMULPD  Y5, Y3, Y3
	VMULPD  Y4, Y3, Y3
	VCMPPD  $3, Y0, Y0, Y6            // all ones where x is NaN
	VORPD   Y6, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  exploop
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
