package mathx

import "math"

// Block-wise link functions for the GLM kernels. Each is one algorithm in
// two encodings: the pure-Go bodies below, built only from math.FMA,
// math.RoundToEven, + - * / and bit operations, and an AVX2+FMA assembly
// body (vec_amd64.s) that mirrors them operation for operation. Every
// operation in the chain is correctly rounded in both, so the two agree
// bit for bit: a seeded run, or a checkpoint resumed on another machine,
// does not depend on which one a CPU selects. The choice is made once at
// start-up from CPUID; there is no setting for it.
//
// Every product that feeds a sum is an explicit FMA and the rest stand
// alone, so a compiler that fuses x*y+z on its own (arm64, GOAMD64=v3)
// finds nothing to fuse and the Go encoding computes the same bits on
// every architecture.

const (
	log2e = 1.44269504088896338700e+00
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10

	// logisticClamp bounds |eta| so that z = exp(-|eta|) stays a normal
	// number and its scale can be applied by adding to the exponent field.
	// exp(-708) = 3.3e-308 is below one ulp of every quantity it is added
	// to, so the clamp changes no result above that size.
	logisticClamp = 708
	// ExpBlock clamps into [expLo, expHi], just outside math.Exp's own
	// thresholds (709.78, -745.13): the clamped ends overflow to +Inf and
	// round to 0 through the ordinary scaling multiply.
	expHi = 710
	expLo = -746
)

// expCoef are the Taylor coefficients 1/n! of exp, n = 13..0 (Horner
// order). After reduction |r| <= ln2/2, where the first dropped term is
// below 6e-18 relative.
var expCoef = [14]float64{
	1.0 / 6227020800, 1.0 / 479001600, 1.0 / 39916800, 1.0 / 3628800, 1.0 / 362880,
	1.0 / 40320, 1.0 / 5040, 1.0 / 720, 1.0 / 120, 1.0 / 24, 1.0 / 6,
	1.0 / 2, 1, 1,
}

// atanhCoef are 2/(2n+1), n = 16..0: log1p(z) = 2 atanh(t) =
// t * sum 2/(2n+1) t^2n with t = z/(2+z). For z in (0, 1], t*t <= 1/9 and
// the first dropped term is below 2e-18 relative; every term is positive,
// so nothing cancels.
var atanhCoef = [17]float64{
	2.0 / 33, 2.0 / 31, 2.0 / 29, 2.0 / 27, 2.0 / 25, 2.0 / 23, 2.0 / 21,
	2.0 / 19, 2.0 / 17, 2.0 / 15, 2.0 / 13, 2.0 / 11, 2.0 / 9, 2.0 / 7,
	2.0 / 5, 2.0 / 3, 2,
}

// nanOut is what both encodings store for a NaN input. NaN payload
// propagation differs between SSE, FMA operand orders and architectures,
// so neither relies on it: the assembly ORs the unordered-compare mask
// into its result, which is this value.
var nanOut = math.Float64frombits(^uint64(0))

// useVector selects the assembly encoding. It is set once here and
// flipped only by this package's tests.
var useVector = hasVector()

// VectorISA names the encoding LogisticBlock and ExpBlock run on this
// CPU: "avx2+fma" or "generic" (the Go bodies).
func VectorISA() string {
	if useVector {
		return "avx2+fma"
	}
	return "generic"
}

// LogisticBlock sets l[i] = log(1+exp(eta[i])) and q[i] =
// 1/(1+exp(-eta[i])) for every i, within 4 ulp for |eta| <= 700. +Inf
// gives (+Inf, 1); -Inf and anything below -708 give exp(-708) = 3.3e-308
// for both instead of the smaller true value; NaN gives NaN. The three
// slices must have one length and must not partially overlap.
func LogisticBlock(eta, l, q []float64) {
	if len(l) != len(eta) || len(q) != len(eta) {
		panic("mathx: LogisticBlock slice lengths differ")
	}
	n := logisticVector(eta, l, q)
	logisticGo(eta[n:], l[n:], q[n:])
}

// ExpBlock sets dst[i] = exp(x[i]) within 4 ulp on normal results, with
// math.Exp's end behaviour: +Inf above 709.78, gradual underflow to 0
// below -745.13, NaN for NaN. dst may be x itself but must not partially
// overlap it.
func ExpBlock(dst, x []float64) {
	if len(dst) != len(x) {
		panic("mathx: ExpBlock slice lengths differ")
	}
	n := expVector(dst, x)
	expGo(dst[n:], x[n:])
}

// expReduced returns k = roundeven(x*log2e) and exp(x - k ln2), the
// reduced exponential in [0.70, 1.42], for finite x.
func expReduced(x float64) (k, p float64) {
	k = math.RoundToEven(x * log2e)
	r := math.FMA(k, -ln2Hi, x)
	r = math.FMA(k, -ln2Lo, r)
	p = expCoef[0]
	for _, c := range expCoef[1:] {
		p = math.FMA(p, r, c)
	}
	return k, p
}

func logisticGo(eta, l, q []float64) {
	for i, e := range eta {
		if e != e {
			l[i], q[i] = nanOut, nanOut
			continue
		}
		a := math.Abs(e)
		if !(a < logisticClamp) {
			a = logisticClamp
		}
		k, p := expReduced(-a)
		// z = exp(-|eta|) = p * 2^k, k in [-1022, 0]: add k to the exponent.
		z := math.Float64frombits(math.Float64bits(p) + uint64(int64(k))<<52)
		t := z / (2 + z)
		s := t * t
		poly := atanhCoef[0]
		for _, c := range atanhCoef[1:] {
			poly = math.FMA(poly, s, c)
		}
		m := e
		if !(e > 0) {
			m = 0
		}
		l[i] = math.FMA(t, poly, m) // max(eta, 0) + log1p(z)
		inv := 1 / (1 + z)
		if math.Signbit(e) {
			q[i] = z * inv
		} else {
			q[i] = inv
		}
	}
}

func expGo(dst, x []float64) {
	for i, v := range x {
		if v != v {
			dst[i] = nanOut
			continue
		}
		if !(v < expHi) {
			v = expHi
		}
		if !(v > expLo) {
			v = expLo
		}
		k, p := expReduced(v)
		// k in [-1076, 1024] leaves the exponent range, so 2^k is applied
		// as two in-range factors: the first product is exact, the second
		// rounds once (to a subnormal, or overflows).
		k1 := int64(k) >> 1
		k2 := int64(k) - k1
		dst[i] = p * pow2(k1) * pow2(k2)
	}
}

// pow2 returns 2^k for k in [-1022, 1023].
func pow2(k int64) float64 { return math.Float64frombits(uint64(k+1023) << 52) }
