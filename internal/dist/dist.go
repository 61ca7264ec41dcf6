// Package dist implements the probability distributions BayesSuite models
// are built from. Every distribution exposes a plain-float log density
// (used by data synthesis, Metropolis-Hastings, and diagnostics) and, in
// ad.go, an autodiff counterpart that records gradient information on an
// ad.Tape (used by HMC/NUTS).
//
// The set mirrors what the paper's workloads need from Stan's math
// library: Normal, Cauchy, Student-t, Gamma, Inverse-Gamma, Beta,
// Exponential, LogNormal, Uniform, Bernoulli(-logit), Binomial(-logit),
// Poisson(-log), Dirichlet, and the Cholesky-parameterized multivariate
// normal for the Gaussian-process workload.
package dist

import (
	"math"

	"bayessuite/internal/linalg"
	"bayessuite/internal/mathx"
)

// NormalLogPDF returns log N(x | mu, sigma).
func NormalLogPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return -0.5*z*z - math.Log(sigma) - mathx.LnSqrt2Pi
}

// CauchyLogPDF returns log Cauchy(x | loc, scale).
func CauchyLogPDF(x, loc, scale float64) float64 {
	z := (x - loc) / scale
	return -math.Log(math.Pi) - math.Log(scale) - math.Log1p(z*z)
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

// StudentTLogPDF returns log t_nu(x | mu, sigma).
func StudentTLogPDF(x, nu, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return mathx.Lgamma((nu+1)/2) - mathx.Lgamma(nu/2) -
		0.5*math.Log(nu*math.Pi) - math.Log(sigma) -
		(nu+1)/2*math.Log1p(z*z/nu)
}

// GammaLogPDF returns log Gamma(x | shape alpha, rate beta).
func GammaLogPDF(x, alpha, beta float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return alpha*math.Log(beta) - mathx.Lgamma(alpha) + (alpha-1)*math.Log(x) - beta*x
}

// InvGammaLogPDF returns log InvGamma(x | shape alpha, scale beta).
func InvGammaLogPDF(x, alpha, beta float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return alpha*math.Log(beta) - mathx.Lgamma(alpha) - (alpha+1)*math.Log(x) - beta/x
}

// BetaLogPDF returns log Beta(x | a, b).
func BetaLogPDF(x, a, b float64) float64 {
	if x <= 0 || x >= 1 {
		return math.Inf(-1)
	}
	return (a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - mathx.LBeta(a, b)
}

// ExponentialLogPDF returns log Exp(x | rate).
func ExponentialLogPDF(x, rate float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	return math.Log(rate) - rate*x
}

// LogNormalLogPDF returns log LogNormal(x | mu, sigma).
func LogNormalLogPDF(x, mu, sigma float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	lx := math.Log(x)
	return NormalLogPDF(lx, mu, sigma) - lx
}

// UniformLogPDF returns log Uniform(x | lo, hi).
func UniformLogPDF(x, lo, hi float64) float64 {
	if x < lo || x > hi {
		return math.Inf(-1)
	}
	return -math.Log(hi - lo)
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

// BinomialLogPMF returns log Binomial(y | n, p).
func BinomialLogPMF(y, n int, p float64) float64 {
	if p <= 0 {
		if y == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if y == n {
			return 0
		}
		return math.Inf(-1)
	}
	fy, fn := float64(y), float64(n)
	return mathx.LChoose(fn, fy) + fy*math.Log(p) + (fn-fy)*math.Log1p(-p)
}

// DirichletLogPDF returns log Dirichlet(x | alpha).
func DirichletLogPDF(x, alpha []float64) float64 {
	if len(x) != len(alpha) {
		panic("dist: Dirichlet length mismatch")
	}
	lp := 0.0
	sumA := 0.0
	for i, a := range alpha {
		if x[i] <= 0 {
			return math.Inf(-1)
		}
		lp += (a-1)*math.Log(x[i]) - mathx.Lgamma(a)
		sumA += a
	}
	return lp + mathx.Lgamma(sumA)
}

// MVNormalCholLogPDF returns log N(y | mu, L L^T) given the lower Cholesky
// factor L of the covariance.
func MVNormalCholLogPDF(y, mu []float64, l *linalg.Matrix) float64 {
	n := len(y)
	diff := make([]float64, n)
	for i := range diff {
		diff[i] = y[i] - mu[i]
	}
	z := linalg.SolveLower(l, diff)
	quad := linalg.Dot(z, z)
	return -0.5*quad - 0.5*linalg.LogDetFromChol(l) - 0.5*float64(n)*mathx.Ln2Pi
}

// NormalCDF returns Phi((x-mu)/sigma).
func NormalCDF(x, mu, sigma float64) float64 {
	return mathx.NormalCDF((x - mu) / sigma)
}

// CauchyCDF returns the Cauchy CDF; the paper (§VII-A) notes the Cauchy
// sampler's reliance on atan, which this exercises.
func CauchyCDF(x, loc, scale float64) float64 {
	return 0.5 + math.Atan((x-loc)/scale)/math.Pi
}
