#include "textflag.h"

// The AVX2 encodings of DotRows and AxpyRows (rows.go) for 4 <= p <= 16.
// No FMA: the Go encoding rounds every product before it is added, so
// each lane does VMULPD, then VADDPD.

// rowmask<>+8*(4-rem) is a four-lane mask that is all ones in lanes
// [0, rem) and zero above: the columns of a row's last, partial group.
DATA rowmask<>+0(SB)/8, $-1
DATA rowmask<>+8(SB)/8, $-1
DATA rowmask<>+16(SB)/8, $-1
DATA rowmask<>+24(SB)/8, $-1
DATA rowmask<>+32(SB)/8, $0
DATA rowmask<>+40(SB)/8, $0
DATA rowmask<>+48(SB)/8, $0
DATA rowmask<>+56(SB)/8, $0
GLOBL rowmask<>(SB), RODATA|NOPTR, $64

// DOTGROUP(off, B): the four rows' accumulators Y0-Y3 add, lane by lane,
// the products of their columns off/8 .. off/8+3 with B. Rows a and b
// start at R8 and R10, rows c and d two strides (R9) further.
#define DOTGROUP(off, B) \
	VMULPD off(R8), B, Y4        \
	VADDPD Y4, Y0, Y0            \
	VMULPD off(R10), B, Y5       \
	VADDPD Y5, Y1, Y1            \
	VMULPD off(R8)(R9*2), B, Y4  \
	VADDPD Y4, Y2, Y2            \
	VMULPD off(R10)(R9*2), B, Y5 \
	VADDPD Y5, Y3, Y3

// DOTTAIL(off, B): lane 0 of each row's accumulator adds the product of
// the column at byte SI+off with the scalar B. VMOVSD and VMULSD leave
// +0 in lanes 1-3, and adding +0 changes no partial: each started at +0,
// and a sum that starts at +0 is never -0. Rows c and d start at BX and
// AX.
#define DOTTAIL(off, B) \
	VMOVSD off(R8)(SI*1), X4  \
	VMULSD B, X4, X4          \
	VADDPD Y4, Y0, Y0         \
	VMOVSD off(R10)(SI*1), X5 \
	VMULSD B, X5, X5          \
	VADDPD Y5, Y1, Y1         \
	VMOVSD off(BX)(SI*1), X4  \
	VMULSD B, X4, X4          \
	VADDPD Y4, Y2, Y2         \
	VMOVSD off(AX)(SI*1), X5  \
	VMULSD B, X5, X5          \
	VADDPD Y5, Y3, Y3

// func dotRowsAVX2(eta, x, beta []float64, group []int, u []float64) (done int)
// len(eta) is a positive multiple of 4 and 4 <= len(beta) <= 16. Four
// rows at a time: row r's partials e0..e3 are the lanes of Yr, folded by
// two horizontal adds into one vector of four dot products. Stops before
// a four-row group holding a group index outside u and returns the rows
// it finished. Mirrors dotRowsGo in rows.go.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-128
	MOVQ eta_base+0(FP), DI
	MOVQ eta_len+8(FP), CX
	MOVQ x_base+24(FP), R8
	MOVQ beta_base+48(FP), AX
	MOVQ beta_len+56(FP), DX
	MOVQ group_base+72(FP), R12
	MOVQ u_base+96(FP), R13
	MOVQ u_len+104(FP), R14
	MOVQ DX, R9
	SHLQ $3, R9                // row stride in bytes
	MOVQ R9, R11
	SHLQ $2, R11               // four rows
	LEAQ (R8)(R9*1), R10
	MOVQ DX, SI
	ANDQ $-4, SI
	SHLQ $3, SI                // byte offset of the leftover columns
	ANDQ $3, DX                // how many there are

	VMOVUPD (AX), Y8
	CMPQ    SI, $64
	JLT     dotbtail
	VMOVUPD 32(AX), Y9
	CMPQ    SI, $96
	JLT     dotbtail
	VMOVUPD 64(AX), Y10
	CMPQ    SI, $128
	JLT     dotbtail
	VMOVUPD 96(AX), Y11

dotbtail:
	ADDQ   SI, AX
	CMPQ   DX, $1
	JLT    dotloop
	VMOVSD (AX), X12
	CMPQ   DX, $2
	JLT    dotloop
	VMOVSD 8(AX), X13
	CMPQ   DX, $3
	JLT    dotloop
	VMOVSD 16(AX), X14

dotloop:
	TESTQ   R12, R12
	JZ      dotrows
	MOVQ    (R12), AX
	CMPQ    AX, R14
	JAE     dotdone
	VMOVSD  (R13)(AX*8), X7
	MOVQ    8(R12), AX
	CMPQ    AX, R14
	JAE     dotdone
	VMOVHPD (R13)(AX*8), X7, X7
	MOVQ    16(R12), AX
	CMPQ    AX, R14
	JAE     dotdone
	VMOVSD  (R13)(AX*8), X6
	MOVQ    24(R12), AX
	CMPQ    AX, R14
	JAE     dotdone
	VMOVHPD (R13)(AX*8), X6, X6
	VINSERTF128 $1, X6, Y7, Y7 // u[group[j..j+3]]

dotrows:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	DOTGROUP(0, Y8)
	CMPQ   SI, $64
	JLT    dottail
	DOTGROUP(32, Y9)
	CMPQ   SI, $96
	JLT    dottail
	DOTGROUP(64, Y10)
	CMPQ   SI, $128
	JLT    dottail
	DOTGROUP(96, Y11)

dottail:
	TESTQ DX, DX
	JZ    dotfold
	LEAQ  (R8)(R9*2), BX
	LEAQ  (R10)(R9*2), AX
	DOTTAIL(0, X12)
	CMPQ  DX, $2
	JLT   dotfold
	DOTTAIL(8, X13)
	CMPQ  DX, $3
	JLT   dotfold
	DOTTAIL(16, X14)

dotfold:
	VHADDPD     Y1, Y0, Y4       // a0+a1 b0+b1 a2+a3 b2+b3
	VHADDPD     Y3, Y2, Y5       // c0+c1 d0+d1 c2+c3 d2+d3
	VINSERTF128 $1, X5, Y4, Y6   // a0+a1 b0+b1 c0+c1 d0+d1
	VPERM2F128  $0x31, Y5, Y4, Y4 // a2+a3 b2+b3 c2+c3 d2+d3
	VADDPD      Y4, Y6, Y6
	VADDPD      (DI), Y6, Y6     // eta += dot
	TESTQ       R12, R12
	JZ          dotstore
	VADDPD      Y7, Y6, Y6       // eta += u[group]
	ADDQ        $32, R12

dotstore:
	VMOVUPD Y6, (DI)
	ADDQ    $32, DI
	ADDQ    R11, R8
	ADDQ    R11, R10
	SUBQ    $4, CX
	JNZ     dotloop

dotdone:
	MOVQ eta_len+8(FP), AX
	SUBQ CX, AX
	MOVQ AX, done+120(FP)
	VZEROUPPER
	RET

// func axpyRowsAVX2(dBeta, x, r []float64, group []int, dU []float64) (done int)
// len(r) is positive and 4 <= len(dBeta) <= 16. dBeta lives in Y0-Y3 for
// the whole groups of four columns and in Y6 for the partial one (masked
// by Y12) while every row adds r[j] times its columns. Stops before a row
// whose group index lies outside dU and returns the rows it finished.
// Mirrors axpyRowsGo in rows.go.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-128
	MOVQ dBeta_base+0(FP), DI
	MOVQ dBeta_len+8(FP), DX
	MOVQ x_base+24(FP), R8
	MOVQ r_base+48(FP), SI
	MOVQ r_len+56(FP), CX
	MOVQ group_base+72(FP), R12
	MOVQ dU_base+96(FP), R13
	MOVQ dU_len+104(FP), R14
	MOVQ DX, R9
	SHLQ $3, R9                // row stride in bytes
	MOVQ DX, AX
	ANDQ $-4, AX
	SHLQ $3, AX                // byte offset of the partial group
	ANDQ $3, DX                // its columns

	VMOVUPD (DI), Y0
	CMPQ    AX, $64
	JLT     axpymask
	VMOVUPD 32(DI), Y1
	CMPQ    AX, $96
	JLT     axpymask
	VMOVUPD 64(DI), Y2
	CMPQ    AX, $128
	JLT     axpymask
	VMOVUPD 96(DI), Y3

axpymask:
	TESTQ      DX, DX
	JZ         axpyloop
	LEAQ       rowmask<>(SB), BX
	MOVQ       $4, R10
	SUBQ       DX, R10
	VMOVUPD    (BX)(R10*8), Y12
	VMASKMOVPD (DI)(AX*1), Y12, Y6

axpyloop:
	TESTQ  R12, R12
	JZ     axpyrow
	MOVQ   (R12), R10
	CMPQ   R10, R14
	JAE    axpydone
	VMOVSD (R13)(R10*8), X5
	VADDSD (SI), X5, X5
	VMOVSD X5, (R13)(R10*8)    // dU[group[j]] += r[j]
	ADDQ   $8, R12

axpyrow:
	VBROADCASTSD (SI), Y4
	VMULPD       (R8), Y4, Y5
	VADDPD       Y5, Y0, Y0
	CMPQ         AX, $64
	JLT          axpypart
	VMULPD       32(R8), Y4, Y5
	VADDPD       Y5, Y1, Y1
	CMPQ         AX, $96
	JLT          axpypart
	VMULPD       64(R8), Y4, Y5
	VADDPD       Y5, Y2, Y2
	CMPQ         AX, $128
	JLT          axpypart
	VMULPD       96(R8), Y4, Y5
	VADDPD       Y5, Y3, Y3

axpypart:
	TESTQ      DX, DX
	JZ         axpynext
	VMASKMOVPD (R8)(AX*1), Y12, Y5
	VMULPD     Y5, Y4, Y5
	VADDPD     Y5, Y6, Y6

axpynext:
	ADDQ $8, SI
	ADDQ R9, R8
	DECQ CX
	JNZ  axpyloop

axpydone:
	VMOVUPD Y0, (DI)
	CMPQ    AX, $64
	JLT     axpystpart
	VMOVUPD Y1, 32(DI)
	CMPQ    AX, $96
	JLT     axpystpart
	VMOVUPD Y2, 64(DI)
	CMPQ    AX, $128
	JLT     axpystpart
	VMOVUPD Y3, 96(DI)

axpystpart:
	TESTQ      DX, DX
	JZ         axpyret
	VMASKMOVPD Y6, Y12, (DI)(AX*1)

axpyret:
	MOVQ r_len+56(FP), R10
	SUBQ CX, R10
	MOVQ R10, done+120(FP)
	VZEROUPPER
	RET
