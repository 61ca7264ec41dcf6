package mathx

import "math"

// Rows of the constant table the assembly reads; vec_amd64.s addresses
// them as row*32. Each row holds one constant replicated across the four
// lanes of a YMM register, so it can be a memory operand.
const (
	tAbs   = iota // 0x7fff... mask
	tSign         // 0x8000... mask
	tClamp        // logisticClamp
	tLog2e
	tNLn2Hi // -ln2Hi
	tNLn2Lo // -ln2Lo
	tOne
	tTwo
	tExpHi
	tExpLo
	tBias   // int64 1023
	tExpC   // expCoef, 14 rows
	tAtanhC = tExpC + len(expCoef)
	tabLen  = tAtanhC + len(atanhCoef)
)

// vecTab is built from the constants the Go encoding uses, so the two
// cannot drift apart.
var vecTab = func() (tab [tabLen][4]float64) {
	set := func(row int, v float64) { tab[row] = [4]float64{v, v, v, v} }
	set(tAbs, math.Float64frombits(1<<63-1))
	set(tSign, math.Float64frombits(1<<63))
	set(tClamp, logisticClamp)
	set(tLog2e, log2e)
	set(tNLn2Hi, -ln2Hi)
	set(tNLn2Lo, -ln2Lo)
	set(tOne, 1)
	set(tTwo, 2)
	set(tExpHi, expHi)
	set(tExpLo, expLo)
	set(tBias, math.Float64frombits(1023))
	for i, c := range expCoef {
		set(tExpC+i, c)
	}
	for i, c := range atanhCoef {
		set(tAtanhC+i, c)
	}
	return tab
}()

// hasVector reports AVX, AVX2 and FMA with the OS saving YMM state.
func hasVector() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if lo, _ := xgetbv(); lo&6 != 6 { // XMM and YMM state enabled in XCR0
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

// logisticVector runs the assembly body over every value and returns how
// many it took: all of them, or none without the vector encoding. A
// remainder of one to three values after the four-lane groups goes
// through the same body once more, copied into a zero-padded four-lane
// block on the stack; the padding lanes' results are dropped.
func logisticVector(eta, l, q []float64) int {
	if !useVector {
		return 0
	}
	n := len(eta) &^ 3
	if n > 0 {
		logisticAVX2(eta[:n], l[:n], q[:n], &vecTab)
	}
	if n < len(eta) {
		var x, lt, qt [4]float64
		copy(x[:], eta[n:])
		logisticAVX2(x[:], lt[:], qt[:], &vecTab)
		copy(l[n:], lt[:])
		copy(q[n:], qt[:])
	}
	return len(eta)
}

// expVector is logisticVector's counterpart for ExpBlock.
func expVector(dst, x []float64) int {
	if !useVector {
		return 0
	}
	n := len(x) &^ 3
	if n > 0 {
		expAVX2(dst[:n], x[:n], &vecTab)
	}
	if n < len(x) {
		var xt, et [4]float64
		copy(xt[:], x[n:])
		expAVX2(et[:], xt[:], &vecTab)
		copy(dst[n:], et[:])
	}
	return len(x)
}

// dotRowsVector runs the assembly row pass, when 4 <= p <= 16, over the
// largest prefix of eta that is a whole number of four-row groups, and
// returns how many rows it finished: all of them, or fewer if it reached
// a group index outside u, which the Go encoding then reports.
func dotRowsVector(eta, x, beta []float64, group []int, u []float64) int {
	n := len(eta) &^ 3
	if !useVector || n == 0 || len(beta) < 4 || len(beta) > 16 {
		return 0
	}
	return dotRowsAVX2(eta[:n], x, beta, group, u)
}

// axpyRowsVector is dotRowsVector's counterpart for AxpyRows; it takes
// every row.
func axpyRowsVector(dBeta, x, r []float64, group []int, dU []float64) int {
	if !useVector || len(r) == 0 || len(dBeta) < 4 || len(dBeta) > 16 {
		return 0
	}
	return axpyRowsAVX2(dBeta, x, r, group, dU)
}

//go:noescape
func dotRowsAVX2(eta, x, beta []float64, group []int, u []float64) (done int)

//go:noescape
func axpyRowsAVX2(dBeta, x, r []float64, group []int, dU []float64) (done int)

//go:noescape
func logisticAVX2(eta, l, q []float64, tab *[tabLen][4]float64)

//go:noescape
func expAVX2(dst, x []float64, tab *[tabLen][4]float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
