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

// memoryRetrieval is the "memory" workload: Nicenboim & Vasishth's
// hierarchical Bayesian model of memory retrieval in sentence
// comprehension, built on McElree's content-addressable memory account.
// Each trial records retrieval accuracy and latency under an interference
// condition; the model jointly fits a hierarchical logistic model for
// accuracy (direct access vs. misretrieval) and a hierarchical lognormal
// model for latency, with per-participant random effects.
type memoryRetrieval struct {
	nSubj int
	subj  []int
	cond  []float64 // interference condition (+-0.5 coded)
	acc   []int     // retrieval accuracy
	logRT []float64 // log latency (ms)

	// Fused-kernel forms of the two likelihood blocks (nil on the legacy
	// tape path). Both reuse cond directly as their single-column design.
	bernAcc *kernels.BernoulliLogitGLM
	normRT  *kernels.NormalIDGLM
}

// NewMemory builds the memory workload at the given dataset scale.
func NewMemory(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0x3e3041)
	nSubj := data.Scale(40, scale)
	trials := data.Scale(30, scale)

	w := &memoryRetrieval{nSubj: nSubj}
	// Generative truth.
	muA, sigA := 1.0, 0.5   // accuracy intercepts (logit scale)
	bA := -0.6              // interference hurts accuracy
	muM, sigM := 6.35, 0.15 // log latency ~ 570 ms
	bM := 0.08              // interference slows retrieval
	sigRT := 0.3
	alpha := make([]float64, nSubj)
	lat := make([]float64, nSubj)
	for j := 0; j < nSubj; j++ {
		alpha[j] = muA + sigA*r.Norm()
		lat[j] = muM + sigM*r.Norm()
	}
	for j := 0; j < nSubj; j++ {
		for k := 0; k < trials; k++ {
			c := -0.5
			if k%2 == 0 {
				c = 0.5
			}
			accP := mathx.InvLogit(alpha[j] + bA*c)
			acc := 0
			if r.Bernoulli(accP) {
				acc = 1
			}
			lrt := lat[j] + bM*c + sigRT*r.Norm()
			w.subj = append(w.subj, j)
			w.cond = append(w.cond, c)
			w.acc = append(w.acc, acc)
			w.logRT = append(w.logRT, lrt)
		}
	}
	w.bernAcc = kernels.NewBernoulliLogitGLM(w.acc, w.cond, 1, nil, w.subj, nSubj)
	w.normRT = kernels.NewNormalIDGLM(w.logRT, w.cond, 1, nil, w.subj, nSubj)
	legacy := *w
	legacy.bernAcc = nil
	legacy.normRT = nil
	return &Workload{
		Info: Info{
			Name:          "memory",
			Family:        "Hierarchical Bayesian",
			Application:   "Modeling memory retrieval in sentence comprehension",
			Source:        "Nicenboim & Vasishth [18]",
			Data:          "synthetic recall accuracy/latency trials",
			Iterations:    2500,
			Chains:        4,
			CodeKB:        26,
			BranchMPKI:    0.7,
			BaseIPC:       2.2,
			Distributions: []string{"normal", "half-cauchy", "bernoulli-logit", "lognormal"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

func (w *memoryRetrieval) Name() string { return "memory" }

// Dim: mu_a, log sig_a, b_a, a_raw[nSubj], mu_m, log sig_m, b_m,
// m_raw[nSubj], log sigma_rt.
func (w *memoryRetrieval) Dim() int { return 3 + w.nSubj + 3 + w.nSubj + 1 }

func (w *memoryRetrieval) ModeledDataBytes() int {
	// subj, cond, acc, logRT per trial.
	return data.Bytes8(4 * len(w.acc))
}

func (w *memoryRetrieval) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	if w.bernAcc != nil {
		return w.logPostKernel(t, q, nil)
	}
	b := model.NewBuilder(t)
	i := 0
	muA := q[i]
	i++
	sigA := b.Positive(q[i])
	i++
	bA := q[i]
	i++
	aRaw := q[i : i+w.nSubj]
	i += w.nSubj
	muM := q[i]
	i++
	sigM := b.Positive(q[i])
	i++
	bM := q[i]
	i++
	mRaw := q[i : i+w.nSubj]
	i += w.nSubj
	sigRT := b.Positive(q[i])

	// Priors.
	b.Add(normalSD2.LPDF(t, muA))
	b.Add(halfCauchy1.LPDF(t, sigA))
	b.Add(stdNormal.LPDF(t, bA))
	b.Add(stdNormal.LPDFVarData(t, aRaw))
	b.Add(muMPrior.LPDF(t, muM))
	b.Add(halfCauchyHalf.LPDF(t, sigM))
	b.Add(normalSDHalf.LPDF(t, bM))
	b.Add(stdNormal.LPDFVarData(t, mRaw))
	b.Add(halfCauchyHalf.LPDF(t, sigRT))

	// Per-subject effects (non-centered).
	alpha := make([]ad.Var, w.nSubj)
	lat := make([]ad.Var, w.nSubj)
	for j := 0; j < w.nSubj; j++ {
		alpha[j] = t.Add(muA, t.Mul(sigA, aRaw[j]))
		lat[j] = t.Add(muM, t.Mul(sigM, mRaw[j]))
	}

	// Accuracy likelihood.
	etaAcc := make([]ad.Var, len(w.acc))
	muRT := make([]ad.Var, len(w.acc))
	for k := range w.acc {
		j := w.subj[k]
		etaAcc[k] = t.Add(alpha[j], t.MulConst(bA, w.cond[k]))
		muRT[k] = t.Add(lat[j], t.MulConst(bM, w.cond[k]))
	}
	b.Add(dist.BernoulliLogitLPMFSum(t, w.acc, etaAcc))
	// Latency likelihood: log RT ~ Normal(mu, sigma) (lognormal on RT; the
	// Jacobian of the log is a data constant and drops out).
	b.Add(dist.NormalLPDFVec(t, w.logRT, muRT, sigRT))
	return b.Result()
}

// logPostKernel is the fused-kernel density. With pre == nil both GLM
// blocks sweep the data; otherwise the precomputed batched results are
// spliced in (model.BatchableModel).
func (w *memoryRetrieval) logPostKernel(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	b := model.NewBuilder(t)
	i := 0
	muA := q[i]
	i++
	sigA := b.Positive(q[i])
	i++
	bA := q[i]
	i++
	aRaw := q[i : i+w.nSubj]
	i += w.nSubj
	muM := q[i]
	i++
	sigM := b.Positive(q[i])
	i++
	bM := q[i]
	i++
	mRaw := q[i : i+w.nSubj]
	i += w.nSubj
	sigRT := b.Positive(q[i])

	// Priors.
	b.Add(normalSD2.LPDF(t, muA))
	b.Add(halfCauchy1.LPDF(t, sigA))
	b.Add(stdNormal.LPDF(t, bA))
	b.Add(stdNormal.LPDFVarData(t, aRaw))
	b.Add(muMPrior.LPDF(t, muM))
	b.Add(halfCauchyHalf.LPDF(t, sigM))
	b.Add(normalSDHalf.LPDF(t, bM))
	b.Add(stdNormal.LPDFVarData(t, mRaw))
	b.Add(halfCauchyHalf.LPDF(t, sigRT))

	// Per-subject effects (non-centered) as kernel group effects.
	alpha := t.ScratchVars(w.nSubj)
	lat := t.ScratchVars(w.nSubj)
	for j := 0; j < w.nSubj; j++ {
		alpha[j] = t.Add(muA, t.Mul(sigA, aRaw[j]))
		lat[j] = t.Add(muM, t.Mul(sigM, mRaw[j]))
	}
	coefA := t.ScratchVars(1)
	coefA[0] = bA
	coefM := t.ScratchVars(1)
	coefM[0] = bM
	if pre != nil {
		b.Add(w.bernAcc.LogLikPre(t, coefA, alpha, &pre[0]))
		// log RT ~ Normal(mu, sigma) (lognormal on RT; the Jacobian of
		// the log is a data constant and drops out).
		b.Add(w.normRT.LogLikPre(t, coefM, lat, sigRT, &pre[1]))
	} else {
		b.Add(w.bernAcc.LogLik(t, coefA, alpha))
		b.Add(w.normRT.LogLik(t, coefM, lat, sigRT))
	}
	return b.Result()
}

// BatchKernels exposes both GLM blocks for cross-chain batched
// evaluation (nil on the legacy tape path, which keeps it unbatchable).
func (w *memoryRetrieval) BatchKernels() []kernels.Batcher {
	if w.bernAcc == nil {
		return nil
	}
	return []kernels.Batcher{w.bernAcc, w.normRT}
}

// KernelParams extracts the inputs of both blocks at q — dst[0] is the
// accuracy GLM's [bA, alpha...], dst[1] the latency GLM's
// [bM, lat..., sigmaRT] — replicating the constraining transforms
// bit-for-bit: scales are exp(q) (+0 from the lower bound, a bitwise
// no-op for positives) and each subject effect is one multiply then one
// add, exactly as t.Mul/t.Add record them.
func (w *memoryRetrieval) KernelParams(q []float64, dst [][]float64) {
	sigA := math.Exp(q[1]) + 0
	sigM := math.Exp(q[4+w.nSubj]) + 0
	dA, dM := dst[0], dst[1]
	dA[0] = q[2]         // bA
	dM[0] = q[5+w.nSubj] // bM
	alpha := dA[1 : 1+w.nSubj]
	lat := dM[1 : 1+w.nSubj]
	for j := 0; j < w.nSubj; j++ {
		ma := sigA * q[3+j]
		alpha[j] = q[0] + ma
		mm := sigM * q[6+w.nSubj+j]
		lat[j] = q[3+w.nSubj] + mm
	}
	dM[1+w.nSubj] = math.Exp(q[6+2*w.nSubj]) + 0 // sigmaRT
}

// LogPosteriorPre records the same density as LogPosterior with the GLM
// sweeps replaced by the precomputed batched results.
func (w *memoryRetrieval) LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	return w.logPostKernel(t, q, pre)
}
