package workloads

import (
	"bayessuite/internal/ad"
	"bayessuite/internal/data"
	"bayessuite/internal/kernels"
	"bayessuite/internal/mathx"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// survival is the "survival" workload: a Cormack-Jolly-Seber (CJS) model
// estimating animal survival probabilities from capture-recapture
// histories (Kéry & Schaub's BPA book). Each of thousands of tagged
// individuals has a binary capture history across occasions; the
// marginalized individual likelihood sweeps every history every
// evaluation, giving this workload a large streamed working set — it is
// one of the paper's three LLC-bound workloads.
//
// That sweep is what the legacy tape path keeps and the characterization
// harness measures. The default path (cjs != nil) counts the histories
// once at build time — the likelihood is a count-weighted sum of 4·T
// distinct terms — and evaluates the collapsed form in O(T).
type survival struct {
	nOcc    int
	history [][]uint8 // capture history per individual
	first   []int     // first capture occasion per individual
	last    []int     // last capture occasion per individual

	cjs *kernels.CJS // nil on the legacy tape path
}

// NewSurvival builds the survival workload at the given dataset scale.
func NewSurvival(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0x5a771)
	nInd := data.Scale(3000, scale)
	const nOcc = 12

	w := &survival{nOcc: nOcc}
	// Generative truth: time-varying survival and recapture.
	phi := make([]float64, nOcc-1)
	p := make([]float64, nOcc)
	for t := range phi {
		phi[t] = 0.55 + 0.3*mathx.InvLogit(r.Norm())
	}
	for t := range p {
		p[t] = 0.3 + 0.4*mathx.InvLogit(r.Norm())
	}
	for i := 0; i < nInd; i++ {
		f := r.Intn(nOcc - 2)
		h := make([]uint8, nOcc)
		h[f] = 1
		alive := true
		lastSeen := f
		for t := f + 1; t < nOcc; t++ {
			if alive && r.Bernoulli(phi[t-1]) {
				if r.Bernoulli(p[t]) {
					h[t] = 1
					lastSeen = t
				}
			} else {
				alive = false
			}
		}
		w.history = append(w.history, h)
		w.first = append(w.first, f)
		w.last = append(w.last, lastSeen)
	}
	w.cjs = kernels.NewCJS(w.history, w.first, w.last, nOcc)
	legacy := *w
	legacy.cjs = nil
	return &Workload{
		Info: Info{
			Name:          "survival",
			Family:        "Cormack-Jolly-Seber",
			Application:   "Estimating animal survival probabilities",
			Source:        "BPA [27], Kéry & Schaub [28]",
			Data:          "synthetic capture-recapture histories",
			Iterations:    2000,
			Chains:        4,
			CodeKB:        24,
			BranchMPKI:    1.1,
			BaseIPC:       2.2,
			Distributions: []string{"uniform", "bernoulli"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

func (w *survival) Name() string { return "survival" }

// Dim: logit phi[nOcc-1], logit p[nOcc-1] (recapture for occasions 2..T;
// p at the first occasion is conditioned on).
func (w *survival) Dim() int { return (w.nOcc - 1) * 2 }

func (w *survival) ModeledDataBytes() int {
	return data.Bytes8(len(w.history) * w.nOcc)
}

func (w *survival) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	nT := w.nOcc - 1
	if w.cjs != nil {
		// Uniform(0,1) priors are constant: the density is the logit
		// Jacobian plus the collapsed likelihood, one node over raw logits.
		return w.cjs.LogDensity(t, q[:nT], q[nT:])
	}
	b := model.NewBuilder(t)
	phi := make([]ad.Var, nT) // survival from t to t+1
	pc := make([]ad.Var, nT)  // recapture at occasion t+1
	for i := 0; i < nT; i++ {
		phi[i] = b.Prob(q[i])
		pc[i] = b.Prob(q[nT+i])
		// Uniform(0,1) priors: constant density, only Jacobians matter.
	}

	// chi[t] = Pr(never seen after occasion t | alive at t), computed by
	// backward recursion: chi[T-1] = 1;
	// chi[t] = (1 - phi[t]) + phi[t] * (1 - p[t+1]) * chi[t+1].
	chi := make([]ad.Var, w.nOcc)
	chi[w.nOcc-1] = ad.Const(1)
	for tt := w.nOcc - 2; tt >= 0; tt-- {
		notSurvive := t.SubFromConst(1, phi[tt])
		missed := t.Mul(phi[tt], t.SubFromConst(1, pc[tt]))
		chi[tt] = t.Add(notSurvive, t.Mul(missed, chi[tt+1]))
	}
	logChi := make([]ad.Var, w.nOcc)
	for tt := range chi {
		logChi[tt] = t.Log(chi[tt])
	}
	logPhi := make([]ad.Var, nT)
	log1mP := make([]ad.Var, nT)
	logP := make([]ad.Var, nT)
	for i := 0; i < nT; i++ {
		logPhi[i] = t.Log(phi[i])
		logP[i] = t.Log(pc[i])
		log1mP[i] = t.Log(t.SubFromConst(1, pc[i]))
	}

	// Individual likelihood, streamed over every capture history the way
	// Stan's CJS model block does (this per-evaluation sweep over the
	// modeled data is what gives survival its large working set): between
	// first and last capture the animal is known alive, so each occasion
	// contributes a survival term and a seen/missed recapture term; after
	// the last capture, chi marginalizes over all unobserved fates.
	mark := t.BeginFused()
	total := 0.0
	for i, h := range w.history {
		f, l := w.first[i], w.last[i]
		for tt := f + 1; tt <= l; tt++ {
			total += logPhi[tt-1].Value()
			t.FusedEdge(logPhi[tt-1], 1)
			if h[tt] == 1 {
				total += logP[tt-1].Value()
				t.FusedEdge(logP[tt-1], 1)
			} else {
				total += log1mP[tt-1].Value()
				t.FusedEdge(log1mP[tt-1], 1)
			}
		}
		total += logChi[l].Value()
		t.FusedEdge(logChi[l], 1)
	}
	b.Add(t.EndFused(mark, total))
	return b.Result()
}

// Constrain maps logits to probabilities.
func (w *survival) Constrain(q []float64) []float64 {
	out := make([]float64, len(q))
	for i, v := range q {
		out[i] = model.ConstrainLowerUpper(v, 0, 1)
	}
	return out
}

// ConstrainedNames labels the constrained parameters.
func (w *survival) ConstrainedNames() []string {
	var names []string
	for i := 0; i < w.nOcc-1; i++ {
		names = append(names, "phi["+itoa(i)+"]")
	}
	for i := 0; i < w.nOcc-1; i++ {
		names = append(names, "p["+itoa(i)+"]")
	}
	return names
}
