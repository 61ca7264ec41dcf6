package workloads

import (
	"bayessuite/internal/ad"
	"bayessuite/internal/data"
	"bayessuite/internal/dist"
	"bayessuite/internal/kernels"
	"bayessuite/internal/mathx"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// adAttribution is the "ad" workload: a logistic regression quantifying
// the effectiveness of advertising channels for the movie industry (Lei et
// al., StanCon 2017). Survey respondents report demographics and which
// advertising channels they saw; the outcome is whether they watched the
// movie. The modeled data — a dense respondent x covariate matrix — is
// among the largest in the suite, which is what makes this workload
// LLC-bound in the paper's multicore characterization (Fig. 2).
//
// The design matrix is stored flat (row-major n×p) and shared by two
// likelihood implementations: the default fused bernoulli-logit GLM
// kernel (bern != nil) and the legacy node-per-observation tape path the
// characterization harness measures.
type adAttribution struct {
	x    []float64 // flat row-major design (intercept + channels + demographics)
	y    []int     // watched indicator
	p    int
	beta []float64 // generative truth

	bern *kernels.BernoulliLogitGLM // nil on the legacy tape path
}

// NewAd builds the ad workload at the given dataset scale.
func NewAd(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0xadad)
	n := data.Scale(1200, scale)
	const p = 16

	w := &adAttribution{p: p}
	w.x = data.Flatten(data.DesignMatrix(r, n, p))
	w.beta = data.Coefficients(r, 0.8, p)
	w.beta[0] = -0.5
	w.y = make([]int, n)
	for i := range w.y {
		eta := 0.0
		for j, b := range w.beta {
			eta += b * w.x[i*p+j]
		}
		if r.Bernoulli(mathx.InvLogit(eta)) {
			w.y[i] = 1
		}
	}
	w.bern = kernels.NewBernoulliLogitGLM(w.y, w.x, p, nil, nil, 0)
	legacy := *w
	legacy.bern = nil
	return &Workload{
		Info: Info{
			Name:          "ad",
			Family:        "Logistic Regression",
			Application:   "Advertising attribution in the movie industry",
			Source:        "StanCon 2017 [15]",
			Data:          "synthetic channel-exposure survey",
			Iterations:    2000,
			Chains:        4,
			CodeKB:        20,
			BranchMPKI:    0.4,
			BaseIPC:       2.4,
			Distributions: []string{"normal", "bernoulli-logit"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

func (w *adAttribution) Name() string { return "ad" }

// Dim: one coefficient per covariate.
func (w *adAttribution) Dim() int { return w.p }

func (w *adAttribution) ModeledDataBytes() int {
	// Full design matrix plus outcomes.
	return data.Bytes8(len(w.y) * (w.p + 1))
}

func (w *adAttribution) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	if w.bern != nil {
		return w.logPostKernel(t, q, nil)
	}
	b := model.NewBuilder(t)
	// Weakly informative priors on coefficients.
	for _, beta := range q {
		b.Add(normalSD2p5.LPDF(t, beta))
	}
	// Linear predictor per respondent: eta_i = x_i . beta.
	eta := make([]ad.Var, len(w.y))
	for i := range w.y {
		eta[i] = t.Dot(q, w.x[i*w.p:(i+1)*w.p])
	}
	b.Add(dist.BernoulliLogitLPMFSum(t, w.y, eta))
	return b.Result()
}

// logPostKernel is the fused-kernel density. With pre == nil the GLM
// block sweeps the data; otherwise the precomputed batched result is
// spliced in (model.BatchableModel).
func (w *adAttribution) logPostKernel(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	b := model.NewBuilder(t)
	// Weakly informative priors on coefficients, fused into one node.
	b.Add(kernels.NormalDeviations(t, q, ad.Const(0), ad.Const(2.5)))
	if pre != nil {
		b.Add(w.bern.LogLikPre(t, q, nil, &pre[0]))
	} else {
		b.Add(w.bern.LogLik(t, q, nil))
	}
	return b.Result()
}

// BatchKernels exposes the GLM block for cross-chain batched evaluation
// (nil on the legacy tape path, which keeps it unbatchable).
func (w *adAttribution) BatchKernels() []kernels.Batcher {
	if w.bern == nil {
		return nil
	}
	return []kernels.Batcher{w.bern}
}

// KernelParams extracts the GLM inputs at q: the coefficients enter the
// kernel untransformed.
func (w *adAttribution) KernelParams(q []float64, dst [][]float64) {
	copy(dst[0], q)
}

// LogPosteriorPre records the same density as LogPosterior with the GLM
// sweep replaced by the precomputed batched result.
func (w *adAttribution) LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	return w.logPostKernel(t, q, pre)
}

// TrueBeta exposes the generative coefficients for integration tests.
func (w *adAttribution) TrueBeta() []float64 { return w.beta }
