package dist

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// This file contains the autodiff counterparts of the log densities in
// dist.go. Each *Sum function accumulates the whole-dataset likelihood as
// a single fused tape node whose edge count is proportional to the modeled
// data size — the key coupling between model/data and the simulated
// working set (paper §V-A).

// NormalLPDF records log N(x | mu, sigma) where any argument may be a
// tracked variable.
func NormalLPDF(t *ad.Tape, x, mu, sigma ad.Var) ad.Var {
	s := sigma.Value()
	z := (x.Value() - mu.Value()) / s
	val := -0.5*z*z - math.Log(s) - mathx.LnSqrt2Pi
	// d/dx = -z/s; d/dmu = z/s; d/dsigma = (z^2 - 1)/s
	mark := t.BeginFused()
	t.FusedEdge(x, -z/s)
	t.FusedEdge(mu, z/s)
	t.FusedEdge(sigma, (z*z-1)/s)
	return t.EndFused(mark, val)
}

// NormalLPDFVec records sum_i log N(y[i] | mu[i], sigma) where each
// observation has its own tracked mean (the regression case).
func NormalLPDFVec(t *ad.Tape, y []float64, mu []ad.Var, sigma ad.Var) ad.Var {
	if len(y) != len(mu) {
		panic("dist: NormalLPDFVec length mismatch")
	}
	s := sigma.Value()
	inv := 1 / s
	mark := t.BeginFused()
	var val, dsigma float64
	for i, yi := range y {
		z := (yi - mu[i].Value()) * inv
		val += -0.5 * z * z
		t.FusedEdge(mu[i], z*inv)
		dsigma += (z*z - 1) * inv
	}
	val += float64(len(y)) * (-math.Log(s) - mathx.LnSqrt2Pi)
	t.FusedEdge(sigma, dsigma)
	return t.EndFused(mark, val)
}

// NormalLPDFVarData records sum_i log N(y[i] | mu, sigma) where the data
// points themselves are tracked variables (latent observations).
func NormalLPDFVarData(t *ad.Tape, y []ad.Var, mu, sigma ad.Var) ad.Var {
	s := sigma.Value()
	m := mu.Value()
	inv := 1 / s
	mark := t.BeginFused()
	var val, dmu, dsigma float64
	for _, yi := range y {
		z := (yi.Value() - m) * inv
		val += -0.5 * z * z
		t.FusedEdge(yi, -z*inv)
		dmu += z * inv
		dsigma += (z*z - 1) * inv
	}
	val += float64(len(y)) * (-math.Log(s) - mathx.LnSqrt2Pi)
	t.FusedEdge(mu, dmu)
	t.FusedEdge(sigma, dsigma)
	return t.EndFused(mark, val)
}

// The densities below take constant parameters, so the part of the
// log density that depends on them alone is computed once, by the New*
// constructor, and added by LPDF in the position the closed form puts it:
// a model that builds its priors once pays no lgamma or log per
// evaluation, and values are bit-identical to evaluating the closed form.

// Normal is the normal density with constant mean and scale.
type Normal struct{ mu, sigma, inv, logSigma, norm float64 }

// NewNormal returns the normal family with the given mean and scale.
func NewNormal(mu, sigma float64) Normal {
	l := math.Log(sigma)
	return Normal{mu: mu, sigma: sigma, inv: 1 / sigma, logSigma: l, norm: -l - mathx.LnSqrt2Pi}
}

// LPDF records log N(x | mu, sigma): NormalLPDF with both parameters
// constant.
func (d Normal) LPDF(t *ad.Tape, x ad.Var) ad.Var {
	z := (x.Value() - d.mu) / d.sigma
	return t.EndFusedSingle(x, -z/d.sigma, -0.5*z*z-d.logSigma-mathx.LnSqrt2Pi)
}

// LPDFVarData records sum_i log N(y[i] | mu, sigma) over tracked y:
// NormalLPDFVarData with both parameters constant.
func (d Normal) LPDFVarData(t *ad.Tape, y []ad.Var) ad.Var {
	mark := t.BeginFused()
	var val float64
	for _, yi := range y {
		z := (yi.Value() - d.mu) * d.inv
		val += -0.5 * z * z
		t.FusedEdge(yi, -z*d.inv)
	}
	val += float64(len(y)) * d.norm
	return t.EndFused(mark, val)
}

// HalfCauchy is the half-Cauchy density on x >= 0 with constant scale.
type HalfCauchy struct{ scale, norm float64 }

// NewHalfCauchy returns the half-Cauchy family with the given scale.
func NewHalfCauchy(scale float64) HalfCauchy {
	return HalfCauchy{scale: scale, norm: math.Ln2 - math.Log(math.Pi) - math.Log(scale)}
}

// LPDF records log HalfCauchy(x | scale). The caller guarantees
// positivity via a Lower transform.
func (d HalfCauchy) LPDF(t *ad.Tape, x ad.Var) ad.Var {
	z := x.Value() / d.scale
	val := d.norm - math.Log1p(z*z)
	return t.EndFusedSingle(x, -2*z/(1+z*z)/d.scale, val)
}

// LogScaleLPDF records sum_i log HalfCauchy(exp(q_i) | scale) + q_i, the
// prior of positive parameters sampled on the log scale with the Jacobian
// of x = exp(q) included, as one node. The exponentials come from one
// mathx.ExpBlock call. The partial 1 − 2z²/(1+z²), z = exp(q)/scale, is
// written 2/(1+z²) − 1, which stays finite where z² overflows.
func (d HalfCauchy) LogScaleLPDF(t *ad.Tape, q []ad.Var) ad.Var {
	g := expValues(t, q)
	val := 0.0
	for i, qi := range q {
		z := g[i] / d.scale
		val += d.norm - math.Log1p(z*z) + qi.Value()
		g[i] = 2/(1+z*z) - 1
	}
	return t.CustomChecked("halfcauchy_log_scale", val, q, g)
}

// expValues returns exp(q_i) for every input in one tape scratch block.
func expValues(t *ad.Tape, q []ad.Var) []float64 {
	g := t.Scratch(len(q))
	for i, qi := range q {
		g[i] = qi.Value()
	}
	mathx.ExpBlock(g, g)
	return g
}

// Gamma is the Gamma(shape alpha, rate beta) density with constant
// parameters.
type Gamma struct{ alpha, beta, norm float64 }

// NewGamma returns Gamma(shape alpha, rate beta).
func NewGamma(alpha, beta float64) Gamma {
	return Gamma{alpha: alpha, beta: beta, norm: alpha*math.Log(beta) - mathx.Lgamma(alpha)}
}

// LPDF records log Gamma(x | alpha, beta).
func (d Gamma) LPDF(t *ad.Tape, x ad.Var) ad.Var {
	v := x.Value()
	val := d.norm + (d.alpha-1)*math.Log(v) - d.beta*v
	return t.EndFusedSingle(x, (d.alpha-1)/v-d.beta, val)
}

// LogScaleLPDF records sum_i log Gamma(exp(q_i) | alpha, beta) + q_i, the
// prior of positive parameters sampled on the log scale with the Jacobian
// of x = exp(q) included, as one node: the summand is
// norm + alpha·q_i − beta·exp(q_i), so one mathx.ExpBlock call is all the
// transcendental work and no log is taken. A non-finite partial (exp
// overflow) panics with a typed *ad.ErrNonFinite, as the kernels do.
func (d Gamma) LogScaleLPDF(t *ad.Tape, q []ad.Var) ad.Var {
	g := expValues(t, q)
	val := 0.0
	for i, qi := range q {
		val += d.norm + d.alpha*qi.Value() - d.beta*g[i]
		g[i] = d.alpha - d.beta*g[i]
	}
	return t.CustomChecked("gamma_log_scale", val, q, g)
}

// LogNormalLPDF records log LogNormal(x | mu, sigma).
func LogNormalLPDF(t *ad.Tape, x, mu, sigma ad.Var) ad.Var {
	lx := t.Log(x)
	lp := NormalLPDF(t, lx, mu, sigma)
	return t.Sub(lp, lx)
}

// LogFactorials returns log y[i]! per observation: the data-only term of
// the Poisson log pmf, computed once at model build for
// PoissonLogLPMFSum.
func LogFactorials(y []int) []float64 {
	out := make([]float64, len(y))
	for i, yi := range y {
		out[i] = mathx.Lgamma(float64(yi) + 1)
	}
	return out
}

// PoissonLogLPMFSum records sum_i log Poisson(y[i] | exp(eta[i])), with
// lfact = LogFactorials(y).
func PoissonLogLPMFSum(t *ad.Tape, y []int, lfact []float64, eta []ad.Var) ad.Var {
	if len(y) != len(eta) || len(lfact) != len(eta) {
		panic("dist: PoissonLogLPMFSum length mismatch")
	}
	mark := t.BeginFused()
	val := 0.0
	for i, yi := range y {
		e := eta[i].Value()
		lam := math.Exp(e)
		fy := float64(yi)
		val += fy*e - lam - lfact[i]
		t.FusedEdge(eta[i], fy-lam)
	}
	return t.EndFused(mark, val)
}

// BernoulliLogitLPMFSum records sum_i log Bernoulli(y[i] | invlogit(eta[i])).
func BernoulliLogitLPMFSum(t *ad.Tape, y []int, eta []ad.Var) ad.Var {
	if len(y) != len(eta) {
		panic("dist: BernoulliLogitLPMFSum length mismatch")
	}
	mark := t.BeginFused()
	val := 0.0
	for i, yi := range y {
		e := eta[i].Value()
		p := mathx.InvLogit(e)
		if yi == 1 {
			val += -mathx.Log1pExp(-e)
			t.FusedEdge(eta[i], 1-p)
		} else {
			val += -mathx.Log1pExp(e)
			t.FusedEdge(eta[i], -p)
		}
	}
	return t.EndFused(mark, val)
}

// LogChooses returns log C(n[i], y[i]) per observation: the data-only term
// of the binomial log pmf, computed once at model build for
// BinomialLogitLPMFSum.
func LogChooses(n, y []int) []float64 {
	if len(n) != len(y) {
		panic("dist: LogChooses length mismatch")
	}
	out := make([]float64, len(y))
	for i, yi := range y {
		out[i] = mathx.LChoose(float64(n[i]), float64(yi))
	}
	return out
}

// BinomialLogitLPMFSum records sum_i log Binomial(y[i] | n[i],
// invlogit(eta[i])), with lchoose = LogChooses(n, y).
func BinomialLogitLPMFSum(t *ad.Tape, y, n []int, lchoose []float64, eta []ad.Var) ad.Var {
	if len(y) != len(eta) || len(n) != len(eta) || len(lchoose) != len(eta) {
		panic("dist: BinomialLogitLPMFSum length mismatch")
	}
	mark := t.BeginFused()
	val := 0.0
	for i, yi := range y {
		e := eta[i].Value()
		p := mathx.InvLogit(e)
		fy, fn := float64(yi), float64(n[i])
		val += lchoose[i] + fy*e - fn*mathx.Log1pExp(e)
		t.FusedEdge(eta[i], fy-fn*p)
	}
	return t.EndFused(mark, val)
}
