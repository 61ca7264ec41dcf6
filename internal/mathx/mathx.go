// Package mathx provides numerically stable scalar special functions that
// the distribution and model layers rely on. Everything is built on the
// standard library math package; the point of this package is stability
// (log-space arithmetic) and the handful of functions math lacks.
package mathx

import "math"

// LnSqrt2Pi is log(sqrt(2*pi)).
const LnSqrt2Pi = 0.91893853320467274178032973640561763986139747363778

// LogSumExp returns log(exp(a) + exp(b)) without overflow.
func LogSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	m := math.Max(a, b)
	return m + math.Log(math.Exp(a-m)+math.Exp(b-m))
}

// Log1pExp returns log(1 + exp(x)) (softplus) stably for all x.
func Log1pExp(x float64) float64 {
	switch {
	case x > 33.3:
		// exp(-x) is below double epsilon relative to x.
		return x
	case x > -37:
		return math.Log1p(math.Exp(x))
	default:
		return math.Exp(x)
	}
}

// LogInvLogit returns log(1/(1+exp(-x))) = -log1p(exp(-x)) stably.
func LogInvLogit(x float64) float64 { return -Log1pExp(-x) }

// InvLogit returns the logistic sigmoid 1/(1+exp(-x)).
func InvLogit(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Logit returns log(p/(1-p)).
func Logit(p float64) float64 { return math.Log(p) - math.Log1p(-p) }

// Lgamma returns log|Gamma(x)| (the sign is dropped; all our uses have
// positive arguments).
func Lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// LChoose returns log(n choose k) for real-valued n, k.
func LChoose(n, k float64) float64 {
	return Lgamma(n+1) - Lgamma(k+1) - Lgamma(n-k+1)
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// MeanVar returns mean and unbiased variance in one pass (Welford).
func MeanVar(x []float64) (mean, variance float64) {
	n := 0
	var m, m2 float64
	for _, v := range x {
		n++
		d := v - m
		m += d / float64(n)
		m2 += d * (v - m)
	}
	if n < 2 {
		return m, 0
	}
	return m, m2 / float64(n-1)
}

// Quantile returns the q-th sample quantile (linear interpolation) of the
// already-sorted slice sorted.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
