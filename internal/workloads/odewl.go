package workloads

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/data"
	"bayessuite/internal/dist"
	"bayessuite/internal/model"
	"bayessuite/internal/ode"
	"bayessuite/internal/rng"
)

// odeWorkload is the "ode" workload: the Friberg-Karlsson semi-mechanistic
// PK/PD model of chemotherapy-induced neutropenia (Margossian &
// Gillespie). A one-compartment oral PK model drives a five-compartment
// neutrophil maturation chain: drug concentration suppresses proliferation
// (Prol), the effect propagates through three transit compartments, and
// circulating neutrophils (Circ) feed back on proliferation with exponent
// gamma. The sampler differentiates through a fixed-step RK4 solve of this
// nonlinear system on the autodiff tape each evaluation — tiny modeled
// data, enormous compute per evaluation, mirroring the paper's ode
// workload (long runtime, negligible memory traffic). The default path
// (plan != nil) runs the same solve in floats with a hand-written reverse
// sweep (odeadjoint.go) and matches the legacy tape path bit for bit.
type odeWorkload struct {
	dose     float64
	tConc    []float64 // concentration observation times (days)
	tANC     []float64 // neutrophil observation times (days)
	obsConc  []float64 // log concentration observations
	obsANC   []float64 // log ANC observations
	stepsPer float64   // RK4 steps per day
	plan     *fkPlan   // nil on the legacy tape path
}

// fkParams indexes the unconstrained parameter vector.
const (
	fkLogKa = iota
	fkLogCL
	fkLogV
	fkLogMTT
	fkLogCirc0
	fkLogSlope
	fkLogGamma
	fkLogSigC
	fkLogSigA
	fkDim
)

// NewODE builds the ode workload. scale scales the number of observation
// times.
func NewODE(scale float64, seed uint64) *Workload {
	r := rng.New(seed ^ 0x0de0de)
	nConc := data.Scale(10, scale)
	nANC := data.Scale(12, scale)

	w := &odeWorkload{
		dose:     80,
		tConc:    data.Linspace(0.2, 2.5, nConc),
		tANC:     data.Linspace(1, 16, nANC),
		stepsPer: 4,
	}
	// Generative truth (units: days, mg, L).
	truth := map[int]float64{
		fkLogKa:    math.Log(2.0),
		fkLogCL:    math.Log(10.0),
		fkLogV:     math.Log(35.0),
		fkLogMTT:   math.Log(5.0),
		fkLogCirc0: math.Log(5.0),
		fkLogSlope: math.Log(0.15),
		fkLogGamma: math.Log(0.17),
	}
	sys := fkSystemFloat(truth, w.dose)
	circ0 := math.Exp(truth[fkLogCirc0])
	y0 := []float64{w.dose, 0, circ0, circ0, circ0, circ0, circ0}
	solConc, err := ode.SolveAt(sys, y0, 0, w.tConc, 1e-8, 1e-10)
	if err != nil {
		panic("workloads: ode data synthesis failed: " + err.Error())
	}
	solANC, err := ode.SolveAt(sys, y0, 0, w.tANC, 1e-8, 1e-10)
	if err != nil {
		panic("workloads: ode data synthesis failed: " + err.Error())
	}
	v := math.Exp(truth[fkLogV])
	for i := range w.tConc {
		conc := solConc[i][1] / v
		w.obsConc = append(w.obsConc, math.Log(math.Max(conc, 1e-6))+0.1*r.Norm())
	}
	for i := range w.tANC {
		w.obsANC = append(w.obsANC, math.Log(math.Max(solANC[i][6], 1e-6))+0.08*r.Norm())
	}
	legacy := *w
	w.plan = newFKPlan(w)
	return &Workload{
		Info: Info{
			Name:          "ode",
			Family:        "Friberg-Karlsson Semi-Mechanistic",
			Application:   "Solving ordinary differential equations of non-linear systems",
			Source:        "Margossian & Gillespie [16]",
			Data:          "synthetic PK/PD time course",
			Iterations:    3000,
			Chains:        4,
			CodeKB:        34,
			BranchMPKI:    0.4,
			BaseIPC:       2.3,
			Distributions: []string{"normal", "half-cauchy", "lognormal"},
			TapeWSSFactor: 0.15,
		},
		Model:  w,
		legacy: &legacy,
	}
}

// fkSystemFloat builds the plain-float Friberg-Karlsson RHS for data
// synthesis.
func fkSystemFloat(p map[int]float64, dose float64) ode.System {
	ka := math.Exp(p[fkLogKa])
	cl := math.Exp(p[fkLogCL])
	v := math.Exp(p[fkLogV])
	mtt := math.Exp(p[fkLogMTT])
	circ0 := math.Exp(p[fkLogCirc0])
	slope := math.Exp(p[fkLogSlope])
	gamma := math.Exp(p[fkLogGamma])
	ktr := 4 / mtt
	ke := cl / v
	return func(t float64, y, dy []float64) {
		gut, cent := y[0], y[1]
		prol, t1, t2, t3, circ := y[2], y[3], y[4], y[5], y[6]
		conc := cent / v
		edrug := slope * conc
		fb := math.Pow(math.Max(circ0/math.Max(circ, 1e-9), 1e-9), gamma)
		dy[0] = -ka * gut
		dy[1] = ka*gut - ke*cent
		dy[2] = ktr * prol * ((1-edrug)*fb - 1)
		dy[3] = ktr * (prol - t1)
		dy[4] = ktr * (t1 - t2)
		dy[5] = ktr * (t2 - t3)
		dy[6] = ktr * (t3 - circ)
	}
}

func (w *odeWorkload) Name() string { return "ode" }
func (w *odeWorkload) Dim() int     { return fkDim }

func (w *odeWorkload) ModeledDataBytes() int {
	return data.Bytes8(2 * (len(w.obsConc) + len(w.obsANC)))
}

func (w *odeWorkload) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	b := model.NewBuilder(t)
	// Log-scale parameters with informative PK priors (standard practice;
	// PK studies always have strong prior knowledge of disposition).
	prior := func(idx int, mu, sd float64) ad.Var {
		b.Add(dist.NormalLPDF(t, q[idx], ad.Const(mu), ad.Const(sd)))
		return q[idx]
	}
	lka := prior(fkLogKa, math.Log(2.0), 0.5)
	lcl := prior(fkLogCL, math.Log(10), 0.5)
	lv := prior(fkLogV, math.Log(35), 0.5)
	lmtt := prior(fkLogMTT, math.Log(5), 0.3)
	lcirc0 := prior(fkLogCirc0, math.Log(5), 0.3)
	lslope := prior(fkLogSlope, math.Log(0.15), 0.5)
	lgamma := prior(fkLogGamma, math.Log(0.17), 0.25)
	sigC := b.Positive(q[fkLogSigC])
	b.Add(halfCauchyFifth.LPDF(t, sigC))
	sigA := b.Positive(q[fkLogSigA])
	b.Add(halfCauchyFifth.LPDF(t, sigA))

	ka := t.Exp(lka)
	ke := t.Exp(t.Sub(lcl, lv)) // CL/V
	ktr := t.Div(ad.Const(4), t.Exp(lmtt))
	circ0 := t.Exp(lcirc0)
	slope := t.Exp(lslope)
	gamma := t.Exp(lgamma)
	invV := t.Exp(t.Neg(lv))

	if w.plan != nil {
		in := t.ScratchVars(fkNumIn)
		in[fkInKa], in[fkInKe], in[fkInKtr], in[fkInCirc0] = ka, ke, ktr, circ0
		in[fkInSlope], in[fkInGamma], in[fkInInvV] = slope, gamma, invV
		in[fkInLogCirc0], in[fkInLogV], in[fkInSigC], in[fkInSigA] = lcirc0, lv, sigC, sigA
		conc, anc := w.plan.logLik(t, in)
		b.Add(conc)
		b.Add(ad.Const(anc))
		return b.Result()
	}

	sysv := func(tp *ad.Tape, _ float64, y, dy []ad.Var) {
		gut, cent := y[0], y[1]
		prol, t1c, t2c, t3c, circ := y[2], y[3], y[4], y[5], y[6]
		conc := tp.Mul(cent, invV)
		edrug := tp.Mul(slope, conc)
		// Feedback (Circ0/Circ)^gamma = exp(gamma * (log Circ0 - log Circ)).
		fb := tp.Exp(tp.Mul(gamma, tp.Sub(lcirc0, tp.Log(circ))))
		dy[0] = tp.Neg(tp.Mul(ka, gut))
		dy[1] = tp.Sub(tp.Mul(ka, gut), tp.Mul(ke, cent))
		inner := tp.AddConst(tp.Mul(tp.SubFromConst(1, edrug), fb), -1)
		dy[2] = tp.Mul(ktr, tp.Mul(prol, inner))
		dy[3] = tp.Mul(ktr, tp.Sub(prol, t1c))
		dy[4] = tp.Mul(ktr, tp.Sub(t1c, t2c))
		dy[5] = tp.Mul(ktr, tp.Sub(t2c, t3c))
		dy[6] = tp.Mul(ktr, tp.Sub(t3c, circ))
	}

	y0 := []ad.Var{ad.Const(w.dose), ad.Const(0), circ0, circ0, circ0, circ0, circ0}
	// One merged, increasing observation grid.
	times, srcIsConc, srcIdx := mergeTimes(w.tConc, w.tANC)
	states := ode.RK4VarAt(t, sysv, y0, 0, times, w.stepsPer)

	muConc := make([]ad.Var, len(w.tConc))
	muANC := make([]ad.Var, len(w.tANC))
	for i, st := range states {
		if srcIsConc[i] {
			// log(conc) = log(cent) - log V.
			muConc[srcIdx[i]] = t.Sub(t.Log(st[1]), lv)
		} else {
			muANC[srcIdx[i]] = t.Log(st[6])
		}
	}
	b.Add(dist.NormalLPDFVec(t, w.obsConc, muConc, sigC))
	b.Add(dist.NormalLPDFVec(t, w.obsANC, muANC, sigA))
	return b.Result()
}

// mergeTimes merges two increasing time grids, remembering the source of
// each merged point.
func mergeTimes(a, b []float64) (times []float64, isA []bool, idx []int) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
			times = append(times, a[i])
			isA = append(isA, true)
			idx = append(idx, i)
			i++
		} else {
			times = append(times, b[j])
			isA = append(isA, false)
			idx = append(idx, j)
			j++
		}
	}
	return
}
