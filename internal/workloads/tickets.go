package workloads

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/data"
	"bayessuite/internal/dist"
	"bayessuite/internal/kernels"
	"bayessuite/internal/mathx"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// tickets is the "tickets" workload: Auerbach's study of whether NYPD
// officers alter their ticket writing to match departmental productivity
// targets. The observation unit is an officer-month; the outcome is
// whether the officer met the month's quota, modeled as a hierarchical
// logistic regression with per-officer intercepts and calendar covariates
// (end-of-month pressure being the effect of interest).
//
// tickets has the largest modeled data in the suite — thousands of
// officer-months with a wide covariate block — which is why the paper
// singles it out: the highest LLC MPKI (7.7 at 1 core, ~20 at 4 cores),
// an i-cache footprint above the 32 KB L1i, and the longest runtime. That
// also makes it the biggest winner from the fused GLM kernel: the default
// path (bern != nil) sweeps the flat covariate block once per gradient
// and takes its logistic link 128 officer-months at a time in vector
// registers (mathx.LogisticBlock), while the legacy tape path keeps the node-per-observation structure the
// characterization harness measures.
type tickets struct {
	nOfficers int
	officer   []int
	x         []float64 // flat row-major calendar/workload covariates
	y         []int     // met-quota indicator
	p         int

	bern *kernels.BernoulliLogitGLM // nil on the legacy tape path
}

// NewTickets builds the tickets workload at the given dataset scale.
func NewTickets(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0x71cce7)
	n := data.Scale(8000, scale)
	nOff := data.Scale(400, scale)
	const p = 13 // intercept + end-of-month + 11 calendar/workload terms

	w := &tickets{nOfficers: nOff, p: p}
	w.x = data.Flatten(data.DesignMatrix(r, n, p))
	// Column 1 is the end-of-month indicator: make it binary.
	for i := 0; i < n; i++ {
		if w.x[i*p+1] > 0.4 {
			w.x[i*p+1] = 1
		} else {
			w.x[i*p+1] = 0
		}
	}
	beta := data.Coefficients(r, 0.6, p)
	beta[0] = -0.8
	beta[1] = 1.2 // strong end-of-month quota effect (the paper's finding)
	alpha := make([]float64, nOff)
	for o := range alpha {
		alpha[o] = 0.7 * r.Norm()
	}
	w.officer = data.GroupIndex(r, n, nOff)
	w.y = make([]int, n)
	for i := range w.y {
		eta := alpha[w.officer[i]]
		for j, b := range beta {
			eta += b * w.x[i*p+j]
		}
		if r.Bernoulli(mathx.InvLogit(eta)) {
			w.y[i] = 1
		}
	}
	w.bern = kernels.NewBernoulliLogitGLM(w.y, w.x, p, nil, w.officer, nOff)
	legacy := *w
	legacy.bern = nil
	return &Workload{
		Info: Info{
			Name:          "tickets",
			Family:        "Logistic Regression",
			Application:   "Do police officers alter ticket writing to match departmental targets?",
			Source:        "Auerbach [19]",
			Data:          "synthetic NYC officer-month quota outcomes",
			Iterations:    3000,
			Chains:        4,
			CodeKB:        46, // exceeds the 32 KB L1i (paper §VII-B)
			BranchMPKI:    1.6,
			BaseIPC:       2.0,
			Distributions: []string{"normal", "half-cauchy", "bernoulli-logit"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

func (w *tickets) Name() string { return "tickets" }

// Dim: log sigma_alpha, alpha_raw[officers], beta[p].
func (w *tickets) Dim() int { return 1 + w.nOfficers + w.p }

func (w *tickets) ModeledDataBytes() int {
	// covariates + outcome + officer id per observation.
	return data.Bytes8(len(w.y) * (w.p + 2))
}

func (w *tickets) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	if w.bern != nil {
		return w.logPostKernel(t, q, nil)
	}
	b := model.NewBuilder(t)
	sigAlpha := b.Positive(q[0])
	alphaRaw := q[1 : 1+w.nOfficers]
	beta := q[1+w.nOfficers:]

	b.Add(halfCauchy1.LPDF(t, sigAlpha))
	b.Add(stdNormal.LPDFVarData(t, alphaRaw))
	for _, bj := range beta {
		b.Add(normalSD2p5.LPDF(t, bj))
	}

	eta := make([]ad.Var, len(w.y))
	for i := range w.y {
		// Non-centered officer intercept + covariate block.
		e := t.Mul(sigAlpha, alphaRaw[w.officer[i]])
		e = t.Add(e, t.Dot(beta, w.x[i*w.p:(i+1)*w.p]))
		eta[i] = e
	}
	b.Add(dist.BernoulliLogitLPMFSum(t, w.y, eta))
	return b.Result()
}

// logPostKernel is the fused-kernel density. With pre == nil the GLM
// block sweeps the data; otherwise the precomputed batched result is
// spliced in (model.BatchableModel).
func (w *tickets) logPostKernel(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	b := model.NewBuilder(t)
	sigAlpha := b.Positive(q[0])
	alphaRaw := q[1 : 1+w.nOfficers]
	beta := q[1+w.nOfficers:]

	b.Add(halfCauchy1.LPDF(t, sigAlpha))
	b.Add(kernels.NormalDeviations(t, alphaRaw, ad.Const(0), ad.Const(1)))
	b.Add(kernels.NormalDeviations(t, beta, ad.Const(0), ad.Const(2.5)))
	// Non-centered officer intercepts feed the kernel as group
	// effects: u_o = sigma_alpha * raw_o, O(officers) tape nodes.
	u := t.ScratchVars(w.nOfficers)
	for o := range u {
		u[o] = t.Mul(sigAlpha, alphaRaw[o])
	}
	if pre != nil {
		b.Add(w.bern.LogLikPre(t, beta, u, &pre[0]))
	} else {
		b.Add(w.bern.LogLik(t, beta, u))
	}
	return b.Result()
}

// BatchKernels exposes the GLM block for cross-chain batched evaluation
// (nil on the legacy tape path, which keeps it unbatchable).
func (w *tickets) BatchKernels() []kernels.Batcher {
	if w.bern == nil {
		return nil
	}
	return []kernels.Batcher{w.bern}
}

// KernelParams extracts the GLM inputs [beta, u] at q, replicating the
// constraining transforms LogPosterior applies bit-for-bit: the scale is
// exp(q0) (+0 from the lower bound, a bitwise no-op for positives) and
// each officer effect is one multiply, exactly as t.Mul records it.
func (w *tickets) KernelParams(q []float64, dst [][]float64) {
	d := dst[0]
	sig := math.Exp(q[0]) + 0
	copy(d[:w.p], q[1+w.nOfficers:])
	u := d[w.p : w.p+w.nOfficers]
	for o := range u {
		u[o] = sig * q[1+o]
	}
}

// LogPosteriorPre records the same density as LogPosterior with the GLM
// sweep replaced by the precomputed batched result.
func (w *tickets) LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	return w.logPostKernel(t, q, pre)
}
