package workloads

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/data"
	"bayessuite/internal/dist"
	"bayessuite/internal/kernels"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// twelveCities is the "12cities" workload: a hierarchical Poisson
// regression asking whether lowering speed limits saves pedestrian lives
// (Auerbach et al. 2017), fitted in the paper to FARS crash records for 12
// US cities. We synthesize city-year pedestrian fatality counts from the
// same generative model: a per-city baseline rate (partially pooled), a
// population exposure offset, a secular yearly trend, and the
// speed-limit-lowered treatment effect the analysis targets.
type twelveCities struct {
	nCities int
	deaths  []int     // fatality count per city-year
	city    []int     // city index per observation
	logPop  []float64 // log population exposure offset
	yearC   []float64 // centered year
	lowered []float64 // 1 after the city lowered its speed limit
	lfact   []float64 // log deaths! per observation

	pois *kernels.PoissonLogGLM // nil on the legacy tape path

	truth struct{ beta float64 }
}

// NewTwelveCities builds the 12cities workload. scale scales the number of
// observed years per city (the modeled data size); the paper's -h/-q
// variants use 0.5/0.25.
func NewTwelveCities(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0xc171e5)
	const nCities = 12
	years := data.Scale(24, scale)

	w := &twelveCities{nCities: nCities}
	// Generative truth. The intercept level is set so city-year fatality
	// counts land in the tens — the magnitude FARS pedestrian data
	// actually has — keeping the per-city information moderate, which is
	// the regime the non-centered hierarchy mixes well in.
	beta := -0.22 // lowering limits reduces fatalities ~20%
	trend := -0.01
	muAlpha := -11.3
	sigAlpha := 0.4
	alpha := make([]float64, nCities)
	loweredAt := make([]int, nCities)
	logPop := make([]float64, nCities)
	for c := 0; c < nCities; c++ {
		alpha[c] = muAlpha + sigAlpha*r.Norm()
		lo := years / 4
		span := years - lo - 1
		if span < 1 {
			span = 1
		}
		loweredAt[c] = lo + r.Intn(span)
		logPop[c] = math.Log(3e5 + 2.5e6*r.Float64())
	}
	for c := 0; c < nCities; c++ {
		for t := 0; t < years; t++ {
			low := 0.0
			if t >= loweredAt[c] {
				low = 1
			}
			yc := float64(t) - float64(years)/2
			eta := alpha[c] + logPop[c] + trend*yc + beta*low
			y := r.Poisson(math.Exp(eta))
			w.deaths = append(w.deaths, y)
			w.city = append(w.city, c)
			w.logPop = append(w.logPop, logPop[c])
			w.yearC = append(w.yearC, yc)
			w.lowered = append(w.lowered, low)
		}
	}
	w.truth.beta = beta
	w.lfact = dist.LogFactorials(w.deaths)
	// Fused-kernel form of the likelihood: a poisson-log GLM with
	// coefficient columns [yearC, lowered], the log-population exposure as
	// offset, and the city intercepts as group effects.
	xk := make([]float64, 0, 2*len(w.deaths))
	for i := range w.deaths {
		xk = append(xk, w.yearC[i], w.lowered[i])
	}
	w.pois = kernels.NewPoissonLogGLM(w.deaths, xk, 2, w.logPop, w.city, nCities)
	legacy := *w
	legacy.pois = nil
	return &Workload{
		Info: Info{
			Name:          "12cities",
			Family:        "Poisson Regression",
			Application:   "Does lowering speed limits save pedestrian lives?",
			Source:        "Auerbach et al. [13]",
			Data:          "synthetic FARS-style city-year fatality counts",
			Iterations:    2000,
			Chains:        4,
			CodeKB:        18,
			BranchMPKI:    0.5,
			BaseIPC:       2.5,
			Distributions: []string{"normal", "half-cauchy", "poisson-log"},
		},
		Model:  w,
		legacy: &legacy,
	}
}

func (w *twelveCities) Name() string { return "12cities" }

// Dim: mu_alpha, log sigma_alpha, alpha_raw[12], trend, beta.
func (w *twelveCities) Dim() int { return 2 + w.nCities + 2 }

func (w *twelveCities) ModeledDataBytes() int {
	// deaths, city, logPop, yearC, lowered per observation.
	return data.Bytes8(5 * len(w.deaths))
}

func (w *twelveCities) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	if w.pois != nil {
		return w.logPostKernel(t, q, nil)
	}
	b := model.NewBuilder(t)
	muAlpha := q[0]
	sigAlpha := b.Positive(q[1])
	alphaRaw := q[2 : 2+w.nCities]
	trend := q[2+w.nCities]
	beta := q[3+w.nCities]

	// Priors.
	b.Add(dist.NormalLPDF(t, muAlpha, ad.Const(-11), ad.Const(2)))
	b.Add(halfCauchy1.LPDF(t, sigAlpha))
	b.Add(dist.NormalLPDFVarData(t, alphaRaw, ad.Const(0), ad.Const(1)))
	b.Add(dist.NormalLPDF(t, trend, ad.Const(0), ad.Const(0.1)))
	b.Add(dist.NormalLPDF(t, beta, ad.Const(0), ad.Const(1)))

	// Non-centered city intercepts: alpha_c = mu + sigma * raw_c.
	alpha := make([]ad.Var, w.nCities)
	for c := range alpha {
		alpha[c] = t.Add(muAlpha, t.Mul(sigAlpha, alphaRaw[c]))
	}

	// Likelihood: deaths ~ Poisson_log(alpha_city + offset + trend*year +
	// beta*lowered).
	eta := make([]ad.Var, len(w.deaths))
	for i := range w.deaths {
		e := t.AddConst(alpha[w.city[i]], w.logPop[i])
		e = t.Add(e, t.MulConst(trend, w.yearC[i]))
		if w.lowered[i] != 0 {
			e = t.Add(e, beta)
		}
		eta[i] = e
	}
	b.Add(dist.PoissonLogLPMFSum(t, w.deaths, w.lfact, eta))
	return b.Result()
}

// logPostKernel is the fused-kernel density. With pre == nil the GLM
// block sweeps the data; otherwise the precomputed batched result is
// spliced in (model.BatchableModel).
func (w *twelveCities) logPostKernel(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	b := model.NewBuilder(t)
	muAlpha := q[0]
	sigAlpha := b.Positive(q[1])
	alphaRaw := q[2 : 2+w.nCities]
	trend := q[2+w.nCities]
	beta := q[3+w.nCities]

	// Priors.
	b.Add(dist.NormalLPDF(t, muAlpha, ad.Const(-11), ad.Const(2)))
	b.Add(halfCauchy1.LPDF(t, sigAlpha))
	b.Add(dist.NormalLPDFVarData(t, alphaRaw, ad.Const(0), ad.Const(1)))
	b.Add(dist.NormalLPDF(t, trend, ad.Const(0), ad.Const(0.1)))
	b.Add(dist.NormalLPDF(t, beta, ad.Const(0), ad.Const(1)))

	// Non-centered city intercepts as kernel group effects.
	alpha := t.ScratchVars(w.nCities)
	for c := range alpha {
		alpha[c] = t.Add(muAlpha, t.Mul(sigAlpha, alphaRaw[c]))
	}
	coef := t.ScratchVars(2)
	coef[0] = trend
	coef[1] = beta
	if pre != nil {
		b.Add(w.pois.LogLikPre(t, coef, alpha, &pre[0]))
	} else {
		b.Add(w.pois.LogLik(t, coef, alpha))
	}
	return b.Result()
}

// BatchKernels exposes the GLM block for cross-chain batched evaluation
// (nil on the legacy tape path, which keeps it unbatchable).
func (w *twelveCities) BatchKernels() []kernels.Batcher {
	if w.pois == nil {
		return nil
	}
	return []kernels.Batcher{w.pois}
}

// KernelParams extracts the GLM inputs [trend, beta, alpha...] at q,
// replicating the constraining transforms bit-for-bit: sigma is exp(q1)
// (+0 from the lower bound, a bitwise no-op for positives) and each city
// intercept is one multiply then one add, exactly as t.Mul/t.Add record
// them.
func (w *twelveCities) KernelParams(q []float64, dst [][]float64) {
	d := dst[0]
	d[0] = q[2+w.nCities]
	d[1] = q[3+w.nCities]
	sig := math.Exp(q[1]) + 0
	alpha := d[2 : 2+w.nCities]
	for c := range alpha {
		m := sig * q[2+c]
		alpha[c] = q[0] + m
	}
}

// LogPosteriorPre records the same density as LogPosterior with the GLM
// sweep replaced by the precomputed batched result.
func (w *twelveCities) LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	return w.logPostKernel(t, q, pre)
}

// Constrain maps an unconstrained draw to the natural scale.
func (w *twelveCities) Constrain(q []float64) []float64 {
	out := make([]float64, len(q))
	copy(out, q)
	out[1] = model.ConstrainLower(q[1], 0)
	return out
}

// ConstrainedNames labels the constrained parameters.
func (w *twelveCities) ConstrainedNames() []string {
	names := []string{"mu_alpha", "sigma_alpha"}
	for c := 0; c < w.nCities; c++ {
		names = append(names, "alpha["+itoa(c)+"]")
	}
	return append(names, "trend", "beta")
}

// TrueBeta exposes the generative treatment effect for integration tests.
func (w *twelveCities) TrueBeta() float64 { return w.truth.beta }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
