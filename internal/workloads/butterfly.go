package workloads

import (
	"bayessuite/internal/ad"
	"bayessuite/internal/data"
	"bayessuite/internal/kernels"
	"bayessuite/internal/mathx"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// butterfly is the "butterfly" workload: Dorazio et al.'s hierarchical
// occupancy model estimating butterfly species richness and accumulation
// from repeated site visits in south-central Sweden. Detection data are
// counts y[i][j] of visits (out of K) at which species i was detected at
// site j. Occupancy z[i][j] is a discrete latent that Stan marginalizes
// analytically:
//
//	log p(y_ij) = logSumExp(log psi_i + Binomial(y_ij | K, p_i),
//	                        log(1-psi_i) + [y_ij == 0])
//
// with species-level occupancy (psi) and detection (p) probabilities drawn
// from community-level distributions. The logSumExp-heavy likelihood makes
// this the suite's lowest-IPC workload (paper Fig. 1a).
//
// A site enters that term only through its count y in {0..K}, so the
// default path (occ != nil) reduces each species' sites to a handful of
// counts at build time and evaluates the collapsed mixture in O(species);
// the legacy tape path keeps the node-per-site structure the
// characterization harness measures.
type butterfly struct {
	nSpecies, nSites, nVisits int
	y                         [][]int // detections per species x site

	occ *kernels.Occupancy // nil on the legacy tape path
}

// NewButterfly builds the butterfly workload at the given dataset scale.
func NewButterfly(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0xb0773f)
	nSpecies := data.Scale(28, scale)
	nSites := data.Scale(20, scale)
	const nVisits = 6

	w := &butterfly{nSpecies: nSpecies, nSites: nSites, nVisits: nVisits}
	muPsi, sigPsi := 0.2, 1.0
	muP, sigP := -0.5, 0.8
	for i := 0; i < nSpecies; i++ {
		psi := mathx.InvLogit(muPsi + sigPsi*r.Norm())
		p := mathx.InvLogit(muP + sigP*r.Norm())
		row := make([]int, nSites)
		for j := 0; j < nSites; j++ {
			if r.Bernoulli(psi) {
				row[j] = r.Binomial(nVisits, p)
			}
		}
		w.y = append(w.y, row)
	}
	w.occ = kernels.NewOccupancy(w.y, nVisits)
	legacy := *w
	legacy.occ = nil
	return &Workload{
		Info: Info{
			Name:          "butterfly",
			Family:        "Hierarchical Bayesian",
			Application:   "Estimating butterfly species richness and accumulation",
			Source:        "Dorazio et al. [26], Knitr [25]",
			Data:          "synthetic repeated-visit detection counts",
			Iterations:    2000,
			Chains:        4,
			CodeKB:        30,
			BranchMPKI:    1.3,
			BaseIPC:       1.6,
			Distributions: []string{"normal", "half-cauchy", "binomial-logit"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

func (w *butterfly) Name() string { return "butterfly" }

// Dim: mu_psi, log sig_psi, mu_p, log sig_p, u_raw[nSpecies],
// v_raw[nSpecies].
func (w *butterfly) Dim() int { return 4 + 2*w.nSpecies }

func (w *butterfly) ModeledDataBytes() int {
	return data.Bytes8(w.nSpecies * w.nSites)
}

func (w *butterfly) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	b := model.NewBuilder(t)
	muPsi := q[0]
	sigPsi := b.Positive(q[1])
	muP := q[2]
	sigP := b.Positive(q[3])
	uRaw := q[4 : 4+w.nSpecies]
	vRaw := q[4+w.nSpecies:]

	b.Add(normalSD2.LPDF(t, muPsi))
	b.Add(halfCauchy1.LPDF(t, sigPsi))
	b.Add(normalSD2.LPDF(t, muP))
	b.Add(halfCauchy1.LPDF(t, sigP))
	b.Add(stdNormal.LPDFVarData(t, uRaw))
	b.Add(stdNormal.LPDFVarData(t, vRaw))

	if w.occ != nil {
		b.Add(w.occ.LogLik(t, muPsi, sigPsi, muP, sigP, uRaw, vRaw))
		return b.Result()
	}
	for i := 0; i < w.nSpecies; i++ {
		etaPsi := t.Add(muPsi, t.Mul(sigPsi, uRaw[i]))
		etaP := t.Add(muP, t.Mul(sigP, vRaw[i]))
		// log psi, log(1-psi) via softplus identities.
		logPsi := t.Neg(t.Log1pExp(t.Neg(etaPsi)))
		log1mPsi := t.Neg(t.Log1pExp(etaPsi))
		logP := t.Neg(t.Log1pExp(t.Neg(etaP)))
		log1mP := t.Neg(t.Log1pExp(etaP))
		for j := 0; j < w.nSites; j++ {
			y := w.y[i][j]
			fy := float64(y)
			fn := float64(w.nVisits)
			// Occupied branch: log psi + C(n,y) + y log p + (n-y) log(1-p).
			occ := t.Add(logPsi, t.AddConst(
				t.Add(t.MulConst(logP, fy), t.MulConst(log1mP, fn-fy)),
				mathx.LChoose(fn, fy)))
			if y > 0 {
				// Detection implies occupancy.
				b.Add(occ)
				continue
			}
			// y == 0: marginalize occupancy with logSumExp(occ, log1mPsi)
			// = a + log1p(exp(b-a)) on the tape.
			diff := t.Sub(log1mPsi, occ)
			b.Add(t.Add(occ, t.Log1pExp(diff)))
		}
	}
	return b.Result()
}
