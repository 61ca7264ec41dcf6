// Package dist implements the probability distributions BayesSuite models
// are built from: in ad.go, recorders that put a log density and its
// gradient on an ad.Tape (used by HMC/NUTS); here, the plain-float closed
// forms the tests check those recorders against.
//
// The set is what the workloads' models take from Stan's math library
// (workloads.Info.Distributions): Normal, half-Cauchy, Gamma, LogNormal,
// Bernoulli-logit, Binomial-logit and Poisson-log. survival's uniform
// priors are constant, so only their logit Jacobian is recorded; its
// Bernoulli capture histories and votes' multivariate normal are fused
// kernels (internal/kernels).
package dist

import (
	"math"

	"bayessuite/internal/mathx"
)

// NormalLogPDF returns log N(x | mu, sigma).
func NormalLogPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return -0.5*z*z - math.Log(sigma) - mathx.LnSqrt2Pi
}

// HalfCauchyLogPDF returns log of the half-Cauchy density on x >= 0 with
// the given scale (location 0). Returns -Inf for negative x.
func HalfCauchyLogPDF(x, scale float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	z := x / scale
	return math.Ln2 - math.Log(math.Pi) - math.Log(scale) - math.Log1p(z*z)
}

// GammaLogPDF returns log Gamma(x | shape alpha, rate beta).
func GammaLogPDF(x, alpha, beta float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return alpha*math.Log(beta) - mathx.Lgamma(alpha) + (alpha-1)*math.Log(x) - beta*x
}

// LogNormalLogPDF returns log LogNormal(x | mu, sigma).
func LogNormalLogPDF(x, mu, sigma float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	lx := math.Log(x)
	return NormalLogPDF(lx, mu, sigma) - lx
}

// PoissonLogPMF returns log Poisson(y | lambda).
func PoissonLogPMF(y int, lambda float64) float64 {
	if lambda <= 0 {
		if y == 0 && lambda == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	fy := float64(y)
	return fy*math.Log(lambda) - lambda - mathx.Lgamma(fy+1)
}

// PoissonLogLogPMF returns log Poisson(y | exp(eta)) in the log-rate
// parameterization used by Poisson regression.
func PoissonLogLogPMF(y int, eta float64) float64 {
	fy := float64(y)
	return fy*eta - math.Exp(eta) - mathx.Lgamma(fy+1)
}

// BernoulliLogitLogPMF returns log Bernoulli(y | invlogit(eta)).
func BernoulliLogitLogPMF(y int, eta float64) float64 {
	if y == 1 {
		return -mathx.Log1pExp(-eta)
	}
	return -mathx.Log1pExp(eta)
}

// BinomialLogitLogPMF returns log Binomial(y | n, invlogit(eta)).
func BinomialLogitLogPMF(y, n int, eta float64) float64 {
	fy, fn := float64(y), float64(n)
	return mathx.LChoose(fn, fy) + fy*eta - fn*mathx.Log1pExp(eta)
}
