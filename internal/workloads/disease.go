package workloads

import (
	"bayessuite/internal/ad"
	"bayessuite/internal/data"
	"bayessuite/internal/dist"
	"bayessuite/internal/kernels"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
	"bayessuite/internal/splines"
)

// disease is the "disease" workload: Pourzanjani et al.'s flexible model
// of Alzheimer's disease progression with I-splines (StanCon 2018). Each
// patient has a latent disease stage in (0, 1); each biomarker follows a
// monotonically increasing degradation curve over stage, expressed as a
// non-negative combination of I-spline basis functions. Both the patient
// stages and the per-biomarker curve coefficients are inferred jointly,
// which makes the posterior high-dimensional and the per-iteration
// trajectories long — one of the paper's long-running workloads.
//
// The basis is evaluated at a parameter (the stage), so nothing about the
// likelihood can be counted ahead of time; the default path (curves !=
// nil) fuses it into one float kernel, the legacy tape path records a
// curve node per patient and marker.
type disease struct {
	nPatients, nMarkers, nBasis int
	basis                       *splines.ISpline
	y                           [][]float64 // biomarker value per patient x marker
	ycols                       [][]float64 // y transposed: one flat column per marker

	coefPrior dist.Gamma // on each spline coefficient

	curves *kernels.ISplineNormal // nil on the legacy tape path
}

// NewDisease builds the disease workload at the given dataset scale.
func NewDisease(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0xd15ea5e)
	nPatients := data.Scale(140, scale)
	const nMarkers = 4
	const nBasis = 6

	w := &disease{
		nPatients: nPatients,
		nMarkers:  nMarkers,
		nBasis:    nBasis,
		basis:     splines.NewISpline(nBasis),
		coefPrior: dist.NewGamma(2, 2),
	}
	// Generative truth: random monotone curves and patient stages.
	coefs := make([][]float64, nMarkers)
	for j := range coefs {
		c := make([]float64, nBasis)
		for k := range c {
			c[k] = r.Gamma(2) / 2
		}
		coefs[j] = c
	}
	sigma := 0.08
	for i := 0; i < nPatients; i++ {
		stage := r.Beta(2, 2)
		row := make([]float64, nMarkers)
		for j := 0; j < nMarkers; j++ {
			v, _ := w.basis.Curve(coefs[j], stage, nil)
			row[j] = v + sigma*r.Norm()
		}
		w.y = append(w.y, row)
	}
	// The likelihood consumes y one marker column at a time; transpose
	// once here instead of re-copying the column every evaluation.
	w.ycols = make([][]float64, nMarkers)
	for j := 0; j < nMarkers; j++ {
		col := make([]float64, nPatients)
		for i := 0; i < nPatients; i++ {
			col[i] = w.y[i][j]
		}
		w.ycols[j] = col
	}
	w.curves = kernels.NewISplineNormal(w.basis, w.ycols)
	legacy := *w
	legacy.curves = nil
	return &Workload{
		Info: Info{
			Name:          "disease",
			Family:        "Logistic Regression",
			Application:   "Measuring the continually worsening progression of Alzheimer's disease",
			Source:        "Pourzanjani et al. [21]",
			Data:          "synthetic ADNI-style biomarker panel",
			Iterations:    2500,
			Chains:        4,
			CodeKB:        32,
			BranchMPKI:    1.0,
			BaseIPC:       2.1,
			Distributions: []string{"normal", "half-cauchy", "gamma"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

func (w *disease) Name() string { return "disease" }

// Dim: stage_raw[nPatients] (logit scale), log c[nMarkers x nBasis],
// log sigma[nMarkers].
func (w *disease) Dim() int {
	return w.nPatients + w.nMarkers*w.nBasis + w.nMarkers
}

func (w *disease) ModeledDataBytes() int {
	return data.Bytes8(w.nPatients * (w.nMarkers + 1))
}

func (w *disease) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	if w.curves != nil {
		return w.logPostKernel(t, q)
	}
	b := model.NewBuilder(t)
	i := 0
	stageRaw := q[i : i+w.nPatients]
	i += w.nPatients
	coefRaw := q[i : i+w.nMarkers*w.nBasis]
	i += w.nMarkers * w.nBasis
	sigmaRaw := q[i:]

	// Patient stages in (0,1) with a weak Beta(2,2)-ish prior via the
	// logit-normal: stage = invlogit(raw), raw ~ N(0, 1.5).
	b.Add(normalSD1p5.LPDFVarData(t, stageRaw))
	stages := make([]ad.Var, w.nPatients)
	for p := range stages {
		stages[p] = b.Prob(stageRaw[p])
	}

	// Positive spline coefficients with Gamma-ish priors on the log scale.
	coefs := make([]ad.Var, len(coefRaw))
	for k, cr := range coefRaw {
		c := b.Positive(cr)
		b.Add(w.coefPrior.LPDF(t, c))
		coefs[k] = c
	}
	sigmas := make([]ad.Var, w.nMarkers)
	for j, sr := range sigmaRaw {
		s := b.Positive(sr)
		b.Add(halfCauchyFifth.LPDF(t, s))
		sigmas[j] = s
	}

	// Likelihood: y[p][j] ~ Normal(curve_j(stage_p), sigma_j). The curve
	// evaluation is a custom fused node: partial wrt the stage is the
	// M-spline derivative, partial wrt each coefficient is the I-spline
	// basis value.
	basisVals := t.Scratch(w.nBasis)
	cjFloat := t.Scratch(w.nBasis)
	for j := 0; j < w.nMarkers; j++ {
		mu := t.ScratchVars(w.nPatients)
		cj := coefs[j*w.nBasis : (j+1)*w.nBasis]
		for k := range cj {
			cjFloat[k] = cj[k].Value()
		}
		for p := 0; p < w.nPatients; p++ {
			x := stages[p].Value()
			val, dx := w.basis.Curve(cjFloat, x, basisVals)
			mark := t.BeginFused()
			t.FusedEdge(stages[p], dx)
			for k := range cj {
				t.FusedEdge(cj[k], basisVals[k])
			}
			mu[p] = t.EndFused(mark, val)
		}
		b.Add(dist.NormalLPDFVec(t, w.ycols[j], mu, sigmas[j]))
	}
	return b.Result()
}

// logPostKernel is the fused-kernel density. Every parameter stays on the
// unconstrained scale: the stage logits go to the kernel with their
// Jacobian as one node, the log-coefficients and log-sigmas go to it raw,
// and their priors, each with its exp Jacobian, are one block node per
// family — no Builder.Positive, no per-parameter prior node.
func (w *disease) logPostKernel(t *ad.Tape, q []ad.Var) ad.Var {
	b := model.NewBuilder(t)
	nCoef := w.nMarkers * w.nBasis
	stageRaw := q[:w.nPatients]
	logCoefs := q[w.nPatients : w.nPatients+nCoef]
	logSigmas := q[w.nPatients+nCoef:]

	b.Add(normalSD1p5.LPDFVarData(t, stageRaw))
	b.Add(kernels.LogitJacobian(t, stageRaw))
	b.Add(w.coefPrior.LogScaleLPDF(t, logCoefs))
	b.Add(halfCauchyFifth.LogScaleLPDF(t, logSigmas))
	b.Add(w.curves.LogLik(t, stageRaw, logCoefs, logSigmas))
	return b.Result()
}
