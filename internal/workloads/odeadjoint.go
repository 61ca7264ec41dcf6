package workloads

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// fkPlan is ode's default likelihood: the RK4 solve and the two normal
// likelihoods of the legacy tape path, evaluated in floats and
// differentiated by a hand-written reverse sweep that visits the legacy
// tape's nodes in the order Tape.Grad does. Each node pushes the same
// products into the same adjoints in the same order, skipping a zero
// adjoint as Grad does, so the value and every gradient word are the
// legacy path's, bit for bit, while the tape records one node instead of
// about 14,600.
type fkPlan struct {
	dose            float64
	obsConc, obsANC []float64
	iv              []fkInterval // the merged observation grid, in time order
	steps           int          // RK4 steps over the whole grid
}

// fkInterval is one RK4VarAt interval: n steps of size h up to the next
// observation time, which observes log concentration (conc) or log ANC.
type fkInterval struct {
	n         int
	h, h2, h6 float64 // h, h/2 and h/6 as RK4Var computes them
	conc      bool
	idx       int // index into obsConc or obsANC
}

func newFKPlan(w *odeWorkload) *fkPlan {
	p := &fkPlan{dose: w.dose, obsConc: w.obsConc, obsANC: w.obsANC}
	times, isConc, idx := mergeTimes(w.tConc, w.tANC)
	t := 0.0
	for i, tt := range times {
		n := int(math.Ceil((tt - t) * w.stepsPer))
		if n < 1 {
			n = 1
		}
		h := (tt - t) / float64(n)
		p.iv = append(p.iv, fkInterval{n: n, h: h, h2: h / 2, h6: h / 6, conc: isConc[i], idx: idx[i]})
		p.steps += n
		t = tt
	}
	return p
}

// The inputs of the likelihood node, in edge order.
const (
	fkInKa = iota
	fkInKe
	fkInKtr
	fkInCirc0
	fkInSlope
	fkInGamma
	fkInInvV
	fkInLogCirc0
	fkInLogV
	fkInSigC
	fkInSigA
	fkNumIn
)

// logLik records the concentration and ANC log likelihoods given the
// parameter nodes in (indexed by the fkIn constants). The legacy path adds
// them to the density as two nodes, each with adjoint exactly 1. Here the
// first is one node carrying the partials of both, and the second is
// returned as a plain value for the caller to add as a constant: the sums
// the density takes are the legacy path's, and so is every adjoint.
func (p *fkPlan) logLik(t *ad.Tape, in []ad.Var) (conc ad.Var, anc float64) {
	r := fkRHS{
		ka: in[fkInKa].Value(), ke: in[fkInKe].Value(), ktr: in[fkInKtr].Value(),
		slope: in[fkInSlope].Value(), gamma: in[fkInGamma].Value(),
		invV: in[fkInInvV].Value(), lcirc0: in[fkInLogCirc0].Value(),
	}
	lv := in[fkInLogV].Value()

	// Forward: the state after every step; ys[7k:7k+7] is the state after
	// step k, ys[0:7] the initial state.
	ys := t.Scratch(7 * (p.steps + 1))
	c0 := in[fkInCirc0].Value()
	y := [7]float64{p.dose, 0, c0, c0, c0, c0, c0}
	copy(ys, y[:])
	var st fkStep
	k := 0
	for _, iv := range p.iv {
		for s := 0; s < iv.n; s++ {
			y = r.step(&st, &y, iv.h, iv.h2, iv.h6)
			k++
			copy(ys[7*k:7*k+7], y[:])
		}
	}

	// The two likelihoods, summed as dist.NormalLPDFVec sums them; amu[j]
	// is the partial of interval j's observation with respect to its mean.
	sC, sA := in[fkInSigC].Value(), in[fkInSigA].Value()
	invC, invA := 1/sC, 1/sA
	var cval, dsC, dsA float64
	amu := t.Scratch(len(p.iv))
	k = 0
	for j, iv := range p.iv {
		k += iv.n
		end := ys[7*k : 7*k+7]
		if iv.conc {
			z := (p.obsConc[iv.idx] - (math.Log(end[1]) - lv)) * invC
			cval += float64(-0.5 * z * z)
			amu[j] = z * invC
			dsC += float64((float64(z*z) - 1) * invC)
		} else {
			z := (p.obsANC[iv.idx] - math.Log(end[6])) * invA
			anc += float64(-0.5 * z * z)
			amu[j] = z * invA
			dsA += float64((float64(z*z) - 1) * invA)
		}
	}
	cval += float64(float64(len(p.obsConc)) * (-math.Log(sC) - mathx.LnSqrt2Pi))
	anc += float64(float64(len(p.obsANC)) * (-math.Log(sA) - mathx.LnSqrt2Pi))

	// Reverse through the means, latest first: log conc = log(cent) − log V
	// and log ANC = log(circ). amu[j] becomes the adjoint the mean pushes
	// into the state at the end of interval j.
	var alv float64
	k = p.steps
	for j := len(p.iv) - 1; j >= 0; j-- {
		iv := p.iv[j]
		end := ys[7*k : 7*k+7]
		k -= iv.n
		a := amu[j]
		amu[j] = 0
		if a == 0 {
			continue
		}
		if iv.conc {
			alv -= a
			amu[j] = float64(a * (1 / end[1]))
		} else {
			amu[j] = float64(a * (1 / end[6]))
		}
	}

	// Reverse through the solve, last step first. ay is the adjoint of the
	// state after the step being reversed; the state an interval ends on
	// takes its mean's push before the next interval's first step pushes.
	var g fkGrad
	var ay, ayOld [7]float64
	if last := len(p.iv) - 1; last >= 0 {
		ay[fkObsSlot(p.iv[last])] += amu[last]
	}
	// The initial state's constants (dose, 0) absorb pushes no node
	// receives; its other five slots are the one circ0 node.
	var sink, ac0 float64
	initial := [7]*float64{&sink, &sink, &ac0, &ac0, &ac0, &ac0, &ac0}
	var old [7]*float64
	for i := range old {
		old[i] = &ayOld[i]
	}
	k = p.steps
	for j := len(p.iv) - 1; j >= 0; j-- {
		iv := p.iv[j]
		for s := iv.n - 1; s >= 0; s-- {
			k--
			ayOld = [7]float64{}
			target := &old
			if k == 0 {
				target = &initial
			} else if s == 0 {
				ayOld[fkObsSlot(p.iv[j-1])] += amu[j-1]
			}
			copy(y[:], ys[7*k:7*k+7])
			r.step(&st, &y, iv.h, iv.h2, iv.h6)
			r.stepRev(&st, &ay, target, iv.h, iv.h2, iv.h6, &g)
			ay = ayOld
		}
	}

	part := t.Scratch(fkNumIn)
	part[fkInKa], part[fkInKe], part[fkInKtr] = g.ka, g.ke, g.ktr
	part[fkInCirc0], part[fkInSlope], part[fkInGamma] = ac0, g.slope, g.gamma
	part[fkInInvV], part[fkInLogCirc0], part[fkInLogV] = g.invV, g.lcirc0, alv
	part[fkInSigC], part[fkInSigA] = dsC, dsA
	return t.Custom(cval, in, part), anc
}

// fkObsSlot is the state slot an interval's observation reads: central
// amount for concentration, circulating neutrophils for ANC.
func fkObsSlot(iv fkInterval) int {
	if iv.conc {
		return 1
	}
	return 6
}

// fkRHS holds the parameter values the Friberg-Karlsson right-hand side
// reads; fkGrad accumulates their adjoints.
type fkRHS struct{ ka, ke, ktr, slope, gamma, invV, lcirc0 float64 }

type fkGrad struct{ ka, ke, ktr, slope, gamma, invV, lcirc0 float64 }

// fkStage is one right-hand-side evaluation: its input state and the
// intermediate values the reverse sweep reads as partials.
type fkStage struct {
	y                           [7]float64
	conc, dd, fb, om, inner, m5 float64
	diff                        [4]float64 // y[k-1] − y[k] for k = 3..6
	dy                          [7]float64
}

// fkStep is one RK4 step's four stages.
type fkStep struct{ st [4]fkStage }

// eval computes the right-hand side at st.y with the operations, operand
// order and roundings of the legacy sysv closure.
func (r *fkRHS) eval(st *fkStage) {
	y := &st.y
	st.conc = y[1] * r.invV
	edrug := float64(r.slope * st.conc)
	st.dd = r.lcirc0 - math.Log(y[6])
	st.fb = math.Exp(r.gamma * st.dd)
	st.dy[0] = -(r.ka * y[0])
	st.dy[1] = float64(r.ka*y[0]) - float64(r.ke*y[1])
	st.om = 1 - edrug
	st.inner = float64(st.om*st.fb) + -1
	st.m5 = y[2] * st.inner
	st.dy[2] = r.ktr * st.m5
	for k := 3; k < 7; k++ {
		st.diff[k-3] = y[k-1] - y[k]
		st.dy[k] = r.ktr * st.diff[k-3]
	}
}

// step advances y by one RK4 step as ode.RK4Var does, leaving the stages
// in s.
func (r *fkRHS) step(s *fkStep, y *[7]float64, h, h2, h6 float64) (next [7]float64) {
	s.st[0].y = *y
	r.eval(&s.st[0])
	for i := range y {
		s.st[1].y[i] = y[i] + float64(s.st[0].dy[i]*h2)
	}
	r.eval(&s.st[1])
	for i := range y {
		s.st[2].y[i] = y[i] + float64(s.st[1].dy[i]*h2)
	}
	r.eval(&s.st[2])
	for i := range y {
		s.st[3].y[i] = y[i] + float64(s.st[2].dy[i]*h)
	}
	r.eval(&s.st[3])
	for i := range y {
		s1 := s.st[0].dy[i] + float64(s.st[1].dy[i]*2)
		s2 := float64(s.st[2].dy[i]*2) + s.st[3].dy[i]
		next[i] = y[i] + float64((s1+s2)*h6)
	}
	return next
}

// stepRev reverses one step s given ay, the adjoint of the state after
// it, pushing into old, the adjoints of the state before it (through
// pointers: the initial state's slots share nodes).
func (r *fkRHS) stepRev(s *fkStep, ay *[7]float64, old *[7]*float64, h, h2, h6 float64, g *fkGrad) {
	// ak[j] is the adjoint of stage j's output; the final update's
	// y + ((k1 + 2k2) + (2k3 + k4))·h/6 is reversed first.
	var ak [4][7]float64
	for i := 6; i >= 0; i-- {
		a := ay[i]
		if a == 0 {
			continue
		}
		*old[i] += a
		a6 := float64(a * h6)
		if a6 == 0 {
			continue
		}
		ak[3][i] += a6
		ak[2][i] += float64(a6 * 2)
		ak[0][i] += a6
		ak[1][i] += float64(a6 * 2)
	}
	var ain [7]float64
	in := [7]*float64{&ain[0], &ain[1], &ain[2], &ain[3], &ain[4], &ain[5], &ain[6]}
	// Stages 3, 2, 1 read y + k·c for c = h, h/2, h/2.
	for j, c := range [3]float64{h, h2, h2} {
		stage := 3 - j
		ain = [7]float64{}
		r.rev(&s.st[stage], &ak[stage], &in, g)
		for i := 6; i >= 0; i-- {
			if a := ain[i]; a != 0 {
				*old[i] += a
				ak[stage-1][i] += float64(a * c)
			}
		}
	}
	r.rev(&s.st[0], &ak[0], old, g)
}

// rev reverses one right-hand-side evaluation given ady, the adjoints of
// its outputs, node by node in the reverse of eval's order, pushing into
// its inputs through in and into the parameters through g.
func (r *fkRHS) rev(st *fkStage, ady *[7]float64, in *[7]*float64, g *fkGrad) {
	y := &st.y
	for k := 6; k >= 3; k-- { // dy_k = ktr·diff, diff = y[k-1] − y[k]
		if a := ady[k]; a != 0 {
			g.ktr += float64(a * st.diff[k-3])
			if adiff := float64(a * r.ktr); adiff != 0 {
				*in[k-1] += adiff
				*in[k] -= adiff
			}
		}
	}
	var am5, am4, aom, afb, am2, am3, am1, agd, add, alc, aedrug, aconc float64
	if a := ady[2]; a != 0 { // dy2 = ktr·m5
		g.ktr += float64(a * st.m5)
		am5 = float64(a * r.ktr)
	}
	if am5 != 0 { // m5 = prol·inner
		*in[2] += float64(am5 * st.inner)
		am4 = float64(am5 * y[2]) // inner = m4 − 1
	}
	if am4 != 0 { // m4 = om·fb
		aom = float64(am4 * st.fb)
		afb = float64(am4 * st.om)
	}
	if aom != 0 { // om = 1 − edrug
		aedrug = -aom
	}
	if a := ady[1]; a != 0 { // dy1 = m2 − m3
		am2, am3 = a, -a
	}
	if am3 != 0 { // m3 = ke·cent
		g.ke += float64(am3 * y[1])
		*in[1] += float64(am3 * r.ke)
	}
	if am2 != 0 { // m2 = ka·gut
		g.ka += float64(am2 * y[0])
		*in[0] += float64(am2 * r.ka)
	}
	if a := ady[0]; a != 0 { // dy0 = −m1
		am1 = -a
	}
	if am1 != 0 { // m1 = ka·gut
		g.ka += float64(am1 * y[0])
		*in[0] += float64(am1 * r.ka)
	}
	if afb != 0 { // fb = exp(gd)
		agd = float64(afb * st.fb)
	}
	if agd != 0 { // gd = gamma·dd
		g.gamma += float64(agd * st.dd)
		add = float64(agd * r.gamma)
	}
	if add != 0 { // dd = log circ0 − lc
		g.lcirc0 += add
		alc = -add
	}
	if alc != 0 { // lc = log(circ)
		*in[6] += float64(alc * (1 / y[6]))
	}
	if aedrug != 0 { // edrug = slope·conc
		g.slope += float64(aedrug * st.conc)
		aconc = float64(aedrug * r.slope)
	}
	if aconc != 0 { // conc = cent·invV
		*in[1] += float64(aconc * r.invV)
		g.invV += float64(aconc * y[1])
	}
}
