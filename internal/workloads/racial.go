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

// racial is the "racial" workload: Simoiu et al.'s threshold test for
// racial bias in vehicle searches. The real study aggregates 4.5 million
// North Carolina stops into department x race cells of (stops, searches,
// hits) counts — which is why, despite the huge raw dataset, the modeled
// data is small and the workload is compute- rather than LLC-bound. The
// model is a hierarchical latent-threshold construction: each cell has a
// latent search threshold drawn around a race-level mean; the search rate
// rises and the hit rate falls as the threshold drops, so differing
// thresholds across races are identified from the joint behavior of both
// rates.
//
// The default path (thr != nil) evaluates both binomial blocks in one
// fused pass over the cells; the legacy tape path records a threshold and
// two linear predictors per cell.
type racial struct {
	nDept, nRace   int
	stops          []int // per cell
	searches, hits []int
	dept, race     []int
	// log C(stops, searches) and log C(searches, hits) per cell.
	lchooseSearch, lchooseHit []float64

	thr *kernels.ThresholdTest // nil on the legacy tape path
}

// deptScale is the fixed prior scale of the department effects on the
// latent threshold.
const deptScale = 0.4

// NewRacial builds the racial workload at the given dataset scale.
func NewRacial(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0x4ac1a1)
	nDept := data.Scale(25, scale)
	const nRace = 4

	w := &racial{nDept: nDept, nRace: nRace}
	// Generative truth: race-level thresholds (the quantity of interest),
	// department effects, and per-cell noise.
	tRace := []float64{0.0, -0.35, -0.30, -0.1}[:nRace] // lower = searched on less evidence
	hRace := []float64{-0.6, -0.2, -0.25, -0.4}[:nRace]
	for d := 0; d < nDept; d++ {
		deptEff := deptScale * r.Norm()
		for race := 0; race < nRace; race++ {
			thr := tRace[race] + deptEff + 0.2*r.Norm()
			stops := 200 + r.Intn(2000)
			pSearch := mathx.InvLogit(-2.5 - thr)
			searches := r.Binomial(stops, pSearch)
			pHit := mathx.InvLogit(hRace[race] + thr)
			hits := r.Binomial(searches, pHit)
			w.stops = append(w.stops, stops)
			w.searches = append(w.searches, searches)
			w.hits = append(w.hits, hits)
			w.dept = append(w.dept, d)
			w.race = append(w.race, race)
		}
	}
	w.lchooseSearch = dist.LogChooses(w.stops, w.searches)
	w.lchooseHit = dist.LogChooses(w.searches, w.hits)
	w.thr = kernels.NewThresholdTest(w.stops, w.searches, w.hits, w.dept, w.race, nDept, nRace, deptScale)
	legacy := *w
	legacy.thr = nil
	return &Workload{
		Info: Info{
			Name:          "racial",
			Family:        "Hierarchical Bayesian",
			Application:   "Testing for racial bias in vehicle searches by police",
			Source:        "Simoiu et al. [23]",
			Data:          "synthetic dept x race stop/search/hit counts",
			Iterations:    2000,
			Chains:        4,
			CodeKB:        28,
			BranchMPKI:    0.6,
			BaseIPC:       1.9,
			Distributions: []string{"normal", "half-cauchy", "binomial-logit"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

func (w *racial) Name() string { return "racial" }

func (w *racial) nCells() int { return len(w.stops) }

// Dim: t_race[nRace], log sigma_t, dept_raw[nDept], cell_raw[cells],
// h_race[nRace], searchBase.
func (w *racial) Dim() int {
	return w.nRace + 1 + w.nDept + w.nCells() + w.nRace + 1
}

func (w *racial) ModeledDataBytes() int {
	// stops, searches, hits, dept, race per cell.
	return data.Bytes8(5 * w.nCells())
}

func (w *racial) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	b := model.NewBuilder(t)
	i := 0
	tRace := q[i : i+w.nRace]
	i += w.nRace
	sigT := b.Positive(q[i])
	i++
	deptRaw := q[i : i+w.nDept]
	i += w.nDept
	cellRaw := q[i : i+w.nCells()]
	i += w.nCells()
	hRace := q[i : i+w.nRace]
	i += w.nRace
	searchBase := q[i]

	// Priors.
	for _, v := range tRace {
		b.Add(stdNormal.LPDF(t, v))
	}
	b.Add(halfCauchyHalf.LPDF(t, sigT))
	b.Add(stdNormal.LPDFVarData(t, deptRaw))
	b.Add(stdNormal.LPDFVarData(t, cellRaw))
	for _, v := range hRace {
		b.Add(normalSD2.LPDF(t, v))
	}
	b.Add(searchBasePrior.LPDF(t, searchBase))

	if w.thr != nil {
		b.Add(w.thr.LogLik(t, tRace, sigT, deptRaw, cellRaw, hRace, searchBase))
		return b.Result()
	}
	// Per-cell latent thresholds and the two binomial likelihoods.
	etaSearch := make([]ad.Var, w.nCells())
	etaHit := make([]ad.Var, w.nCells())
	for c := 0; c < w.nCells(); c++ {
		thr := t.Add(tRace[w.race[c]], t.MulConst(deptRaw[w.dept[c]], deptScale))
		thr = t.Add(thr, t.Mul(sigT, cellRaw[c]))
		// Lower threshold -> more searches, fewer hits per search.
		etaSearch[c] = t.Sub(searchBase, thr)
		etaHit[c] = t.Add(hRace[w.race[c]], thr)
	}
	b.Add(dist.BinomialLogitLPMFSum(t, w.searches, w.stops, w.lchooseSearch, etaSearch))
	b.Add(dist.BinomialLogitLPMFSum(t, w.hits, w.searches, w.lchooseHit, etaHit))
	return b.Result()
}
