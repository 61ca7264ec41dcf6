package workloads

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"strconv"
	"testing"

	"bayessuite/internal/ad"
	"bayessuite/internal/dist"
	"bayessuite/internal/kernels"
	"bayessuite/internal/mathx"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// kernelValue records one kernel block on a fresh tape over inputs q and
// returns its value.
func kernelValue(q []float64, rec func(t *ad.Tape, in []ad.Var) ad.Var) float64 {
	t := ad.NewTape(0)
	return rec(t, t.Input(q)).Value()
}

// TestCollapseInvariant is the property the collapsed kernels rest on: the
// counts taken at build time reproduce, to 1e-10 relative, the
// log-likelihood a direct sweep over every observation computes — for the
// CJS counts, the occupancy class counts and the threshold test's hoisted
// lchoose constant, over 20 (seed, scale) pairs and a random point each.
func TestCollapseInvariant(t *testing.T) {
	near := func(t *testing.T, name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-10*math.Abs(want) {
			t.Errorf("%s: collapsed %.15g, direct sweep %.15g", name, got, want)
		}
	}
	r := rng.New(31)
	for trial := 0; trial < 20; trial++ {
		seed := uint64(100 + trial)
		scale := 0.05 + 0.95*r.Float64()

		sv := NewSurvival(scale, seed).Model.(*survival)
		q := randomPoint(sv.Dim(), r)
		nT := sv.nOcc - 1
		near(t, "survival", kernelValue(q, func(tp *ad.Tape, in []ad.Var) ad.Var {
			return sv.cjs.LogDensity(tp, in[:nT], in[nT:])
		}), sv.directLogLik(q)+logitJacobian(q))

		bf := NewButterfly(scale, seed).Model.(*butterfly)
		q = randomPoint(bf.Dim(), r)
		q[1], q[3] = 0.3*q[1], 0.3*q[3] // scales enter as values, keep them ordinary
		near(t, "butterfly", kernelValue(q, func(tp *ad.Tape, in []ad.Var) ad.Var {
			return bf.occ.LogLik(tp, in[0], in[1], in[2], in[3], in[4:4+bf.nSpecies], in[4+bf.nSpecies:])
		}), bf.directLogLik(q))

		rc := NewRacial(scale, seed).Model.(*racial)
		q = randomPoint(rc.Dim(), r)
		near(t, "racial", kernelValue(q, func(tp *ad.Tape, in []ad.Var) ad.Var {
			i := rc.nRace + 1 + rc.nDept
			return rc.thr.LogLik(tp, in[:rc.nRace], in[rc.nRace], in[rc.nRace+1:i],
				in[i:i+rc.nCells()], in[i+rc.nCells():i+rc.nCells()+rc.nRace], in[len(in)-1])
		}), rc.directLogLik(q))
	}
}

// collapsedGLM evaluates a Bernoulli-logit or Poisson-log GLM likelihood
// (p <= 2, grouped) from per-cell sufficient statistics, a cell being the
// observations that share a design row and a group: with k_c the sum of
// the outcomes and m_c the count,
//
//	sum_c k_c eta_c - m_c log1pexp(eta_c)   or   sum_c k_c eta_c - m_c exp(eta_c) - sum_i log y_i!
//
// and its gradient in (beta, u), using scalar mathx.Log1pExp,
// mathx.InvLogit and math.Exp only. It shares no code with the kernels'
// per-observation sweep or the block link functions under it.
func collapsedGLM(poisson bool, y []int, x []float64, p int, group []int, beta, u []float64) (float64, []float64) {
	type cell struct {
		g      int
		x0, x1 float64
	}
	stats := map[cell]*[2]float64{}
	var order []cell
	val := 0.0
	for i, yi := range y {
		c := cell{g: group[i], x0: x[i*p]}
		if p == 2 {
			c.x1 = x[i*p+1]
		}
		if stats[c] == nil {
			stats[c] = new([2]float64)
			order = append(order, c)
		}
		stats[c][0] += float64(yi)
		stats[c][1]++
		if poisson {
			val -= mathx.Lgamma(float64(yi) + 1)
		}
	}
	grad := make([]float64, p+len(u))
	for _, c := range order {
		k, m := stats[c][0], stats[c][1]
		xc := []float64{c.x0, c.x1}[:p]
		eta := u[c.g]
		for j, xj := range xc {
			eta += xj * beta[j]
		}
		var res float64
		if poisson {
			val += k*eta - m*math.Exp(eta)
			res = k - m*math.Exp(eta)
		} else {
			val += k*eta - m*mathx.Log1pExp(eta)
			res = k - m*mathx.InvLogit(eta)
		}
		for j, xj := range xc {
			grad[j] += res * xj
		}
		grad[p+c.g] += res
	}
	return val, grad
}

// TestGLMKernelsMatchCollapsedCells is the independent oracle for the two
// families whose floats the vector link layer moved: where design rows
// repeat within groups the per-observation kernels must reproduce the
// closed form over cells, value and every partial to 1e-10 — on memory's
// own accuracy block (2 conditions x subject) and on a synthetic
// 5,000-row, 2-column, 25-group design with four distinct rows.
func TestGLMKernelsMatchCollapsedCells(t *testing.T) {
	check := func(name string, poisson bool, y []int, x []float64, p int, group []int, nGroups int, q []float64) {
		t.Helper()
		tp := ad.NewTape(0)
		in := tp.Input(q)
		var out ad.Var
		if poisson {
			out = kernels.NewPoissonLogGLM(y, x, p, nil, group, nGroups).LogLik(tp, in[:p], in[p:])
		} else {
			out = kernels.NewBernoulliLogitGLM(y, x, p, nil, group, nGroups).LogLik(tp, in[:p], in[p:])
		}
		got := make([]float64, len(q))
		tp.Grad(out, got)
		wantVal, want := collapsedGLM(poisson, y, x, p, group, q[:p], q[p:])
		if math.Abs(out.Value()-wantVal) > 1e-10*math.Abs(wantVal) {
			t.Errorf("%s: kernel value %.15g, collapsed cells %.15g", name, out.Value(), wantVal)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-10*math.Max(1, math.Abs(want[j])) {
				t.Errorf("%s: partial %d: kernel %.15g, collapsed cells %.15g", name, j, got[j], want[j])
			}
		}
	}
	r := rng.New(47)
	for _, scale := range []float64{0.3, 1} {
		mem := NewMemory(scale, 11).Model.(*memoryRetrieval)
		check("memory accuracy block", false, mem.acc, mem.cond, 1, mem.subj, mem.nSubj, randomPoint(1+mem.nSubj, r))
	}
	const n, p, g = 5000, 2, 25
	rows := [4][2]float64{{1, -0.5}, {1, 0.5}, {0.25, 2}, {-1.5, 0}}
	x, group := make([]float64, 0, n*p), make([]int, n)
	yb, yp := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		row := rows[r.Intn(len(rows))]
		x = append(x, row[0], row[1])
		group[i] = r.Intn(g)
		if r.Bernoulli(0.4) {
			yb[i] = 1
		}
		yp[i] = r.Intn(7)
	}
	q := randomPoint(p+g, r)
	check("synthetic bernoulli-logit", false, yb, x, p, group, g, q)
	check("synthetic poisson-log", true, yp, x, p, group, g, q)
}

func randomPoint(dim int, r *rng.RNG) []float64 {
	q := make([]float64, dim)
	for i := range q {
		q[i] = 0.8 * r.Norm()
	}
	return q
}

// directLogLik is the CJS log-likelihood at logits q, one animal and one
// occasion at a time.
func (w *survival) directLogLik(q []float64) float64 {
	nT := w.nOcc - 1
	chi := make([]float64, w.nOcc)
	chi[nT] = 1
	for t := nT - 1; t >= 0; t-- {
		phi, p := mathx.InvLogit(q[t]), mathx.InvLogit(q[nT+t])
		chi[t] = (1 - phi) + phi*(1-p)*chi[t+1]
	}
	total := 0.0
	for i, h := range w.history {
		for t := w.first[i] + 1; t <= w.last[i]; t++ {
			total += mathx.LogInvLogit(q[t-1]) + dist.BernoulliLogitLogPMF(int(h[t]), q[nT+t-1])
		}
		total += math.Log(chi[w.last[i]])
	}
	return total
}

// logitJacobian is sum_i log s(q_i) + log s(-q_i), one logit at a time.
func logitJacobian(q []float64) float64 {
	total := 0.0
	for _, x := range q {
		total += mathx.LogInvLogit(x) + mathx.LogInvLogit(-x)
	}
	return total
}

// directLogLik is the occupancy log-likelihood at (muPsi, sigPsi, muP,
// sigP, uRaw, vRaw), one species-site at a time.
func (w *butterfly) directLogLik(q []float64) float64 {
	total := 0.0
	for i, row := range w.y {
		etaPsi := q[0] + q[1]*q[4+i]
		etaP := q[2] + q[3]*q[4+w.nSpecies+i]
		for _, y := range row {
			occ := mathx.LogInvLogit(etaPsi) + dist.BinomialLogitLogPMF(y, w.nVisits, etaP)
			if y > 0 {
				total += occ
			} else {
				total += mathx.LogSumExp(occ, mathx.LogInvLogit(-etaPsi))
			}
		}
	}
	return total
}

// directLogLik is the threshold test's log-likelihood at (tRace, sigma,
// deptRaw, cellRaw, hRace, searchBase), one cell at a time with its own
// lchoose terms.
func (w *racial) directLogLik(q []float64) float64 {
	tRace, sig := q[:w.nRace], q[w.nRace]
	deptRaw := q[w.nRace+1 : w.nRace+1+w.nDept]
	cellRaw := q[w.nRace+1+w.nDept:]
	hRace := cellRaw[w.nCells():]
	base := q[len(q)-1]
	total := 0.0
	for c := range w.stops {
		thr := tRace[w.race[c]] + deptScale*deptRaw[w.dept[c]] + sig*cellRaw[c]
		total += dist.BinomialLogitLogPMF(w.searches[c], w.stops[c], base-thr)
		total += dist.BinomialLogitLogPMF(w.hits[c], w.searches[c], hRace[w.race[c]]+thr)
	}
	return total
}

// TestCollapsedKernelsAdversarialData drives the two collapsed kernels
// over datasets built to hit their empty classes: a species never
// detected anywhere, one detected at every site (once on every visit),
// animals never seen again after marking — at the first occasion, and at
// the last, where chi is exactly 1 — and an animal seen at every occasion,
// which leaves most miss counts at zero. A zero count must drop its term:
// with its probability saturated at 0 or 1 the tape oracle never touches
// that log, and the kernel must not turn 0·log 0 into a NaN.
func TestCollapsedKernelsAdversarialData(t *testing.T) {
	r := rng.New(53)

	bf := &butterfly{nSpecies: 4, nSites: 5, nVisits: 6, y: [][]int{
		{0, 0, 0, 0, 0},
		{6, 3, 1, 6, 2},
		{0, 2, 0, 6, 0},
		{1, 1, 1, 1, 1},
	}}
	bfLegacy := *bf
	bf.occ = kernels.NewOccupancy(bf.y, bf.nVisits)

	const nOcc = 6
	sv := &survival{nOcc: nOcc,
		history: [][]uint8{
			{1, 0, 0, 0, 0, 0},
			{1, 1, 1, 1, 1, 1},
			{0, 0, 0, 0, 0, 1},
			{0, 1, 0, 0, 0, 0},
			{1, 1, 0, 0, 0, 0},
		},
		first: []int{0, 0, 5, 1, 0},
		last:  []int{0, 5, 5, 1, 1},
	}
	svLegacy := *sv
	sv.cjs = kernels.NewCJS(sv.history, sv.first, sv.last, nOcc)

	for _, pair := range []struct{ kernel, legacy model.Model }{{bf, &bfLegacy}, {sv, &svLegacy}} {
		evK := model.NewEvaluator(pair.kernel)
		evT := model.NewEvaluator(pair.legacy)
		pts := adversarialPoints(evK.Dim(), r)
		for i := 0; i < 5; i++ {
			pts = append(pts, randomPoint(evK.Dim(), r))
		}
		for i, q := range pts {
			checkEquivalent(t, pair.kernel.Name()+" point "+itoa(i), evK, evT, q)
		}
	}

	// Nobody was missed between occasions 1 and 5, so recapture logits of
	// +40 there (p exactly 1, log(1-p) = -Inf) must leave the density
	// finite on both paths.
	q := randomPoint(sv.Dim(), r)
	for t := 1; t < nOcc-1; t++ {
		q[nOcc-1+t] = 40
	}
	evK, evT := model.NewEvaluator(sv), model.NewEvaluator(&svLegacy)
	g := make([]float64, len(q))
	if lp := evK.LogDensityGrad(q, g); math.IsInf(lp, 0) {
		t.Errorf("survival kernel: density %v with p = 1 at occasions no animal was missed at", lp)
	}
	checkEquivalent(t, "survival saturated recapture", evK, evT, q)
}

// TestBlockLinkKernelsSaturatedLogits drives the three kernels that take
// their logs and exps from mathx.LogisticBlock — CJS.LogDensity with its
// logit Jacobian (survival), Occupancy (butterfly), LogitJacobian beside
// ISplineNormal (disease) — with logits of ±30 and ±700: probabilities within 1e-13 of 0
// and 1, and at ±700 rounded to 1 or to 1e-304. Wherever the legacy tape's
// density is finite the kernel's must be too; the two must agree as
// TestKernelTapeEquivalence requires (both -Inf where the tape rejects a
// miss at p = 1); and a finite kernel gradient must match central finite
// differences of the kernel density.
//
// Survival's recapture logits at +30 are held to the direct sweep instead
// of the tape. There 1 - p = 9.4e-14, and the tape takes log(1 - p) from
// 1 - fl(p), which carries up to 2^-53/(1 - p) = 1.2e-3 of relative error
// (0.3 on a density of -9,932 here); the kernel's log(1-p) = -softplus(eta)
// and the sweep's log1pexp carry none. Both logit vectors at +30 at once
// are not tested: chi's complements 1 - phi and 1 - p are 1 - fl(s) on
// every path, and the finite differences then read that rounding.
func TestBlockLinkKernelsSaturatedLogits(t *testing.T) {
	build := func(name string, scale float64) *Workload {
		w, err := New(name, scale, 3)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sv, bf, ds := build("survival", 0.25), build("butterfly", 0.25), build("disease", 0.03)
	nStage := ds.Model.(*disease).nPatients
	type saturate struct {
		name string
		at   []float64
		set  func(q []float64, v float64) // puts the case's logits at v
	}
	all, far := []float64{30, -30, 700, -700}, []float64{-30, 700, -700}
	r := rng.New(61)
	for _, c := range []struct {
		w    *Workload
		sets []saturate
	}{
		{sv, []saturate{
			{"phi", all, func(q []float64, v float64) { fill(q[:len(q)/2], v, 1) }},
			{"p", all, func(q []float64, v float64) { fill(q[len(q)/2:], v, 1) }},
			{"both", far, func(q []float64, v float64) { fill(q, v, 1) }},
			{"alternating", []float64{700, -700}, func(q []float64, v float64) { fill(q, v, -1) }},
		}},
		// logit psi_i = q[0] + exp(q[1])·u_i, logit p_i = q[2] + exp(q[3])·v_i.
		{bf, []saturate{
			{"psi", all, func(q []float64, v float64) { q[0] = v }},
			{"p", all, func(q []float64, v float64) { q[2] = v }},
			{"opposite", all, func(q []float64, v float64) { q[0], q[2] = v, -v }},
		}},
		{ds, []saturate{
			{"stages", all, func(q []float64, v float64) { fill(q[:nStage], v, 1) }},
			{"alternating", all, func(q []float64, v float64) { fill(q[:nStage], v, -1) }},
		}},
	} {
		evK, evT := model.NewEvaluator(c.w.Model), model.NewEvaluator(c.w.TapeModel())
		for _, s := range c.sets {
			for _, v := range s.at {
				q := randomPoint(evK.Dim(), r)
				for i := range q {
					q[i] *= 0.5
				}
				s.set(q, v)
				label := c.w.Info.Name + " " + s.name + " at " + strconv.FormatFloat(v, 'g', -1, 64)
				g := make([]float64, len(q))
				lpK := evK.LogDensityGrad(q, g)
				if lpT := evT.LogDensity(q); !math.IsInf(lpT, 0) && (math.IsInf(lpK, 0) || math.IsNaN(lpK)) {
					t.Errorf("%s: kernel density %v where the tape's is %v", label, lpK, lpT)
				}
				if c.w == sv && s.name == "p" && v == 30 {
					m := sv.Model.(*survival)
					nT := m.nOcc - 1
					got := kernelValue(q, func(tp *ad.Tape, in []ad.Var) ad.Var { return m.cjs.LogDensity(tp, in[:nT], in[nT:]) })
					if want := m.directLogLik(q) + logitJacobian(q); math.Abs(got-want) > 1e-10*math.Abs(want) {
						t.Errorf("%s: collapsed %.15g, direct sweep %.15g", label, got, want)
					}
				} else {
					checkEquivalent(t, label, evK, evT, q)
				}
				if !math.IsInf(lpK, -1) {
					checkGradFD(t, label, evK, q, g, 1, 1e-4)
				}
			}
		}
	}
}

// fill sets every entry of q to v, alternating its sign if alt is -1.
func fill(q []float64, v, alt float64) {
	for i := range q {
		q[i] = v
		v *= alt
	}
}

// tapeShapes are the legacy tape models' node and edge counts at scale
// 1.0, seed 3, as measured at the commit before the collapsed-kernel
// ports. internal/perf, internal/hw, internal/accel and the figure
// harness read these tapes as the paper's Stan-shaped working sets; a port
// that edits a legacy body in place shows up here first.
var tapeShapes = []struct {
	name         string
	nodes, edges int
}{
	{"12cities", 1037, 1756},
	{"ad", 1249, 20448},
	{"ode", 14664, 24438},
	{"memory", 5077, 10040},
	{"votes", 2650, 10460},
	{"tickets", 24448, 144448},
	{"disease", 2277, 6508},
	{"racial", 765, 1465},
	{"butterfly", 4639, 6972},
	{"survival", 353, 10931},
}

func TestTapeModelShapeUnchanged(t *testing.T) {
	for _, want := range tapeShapes {
		w, err := New(want.name, 1.0, 3)
		if err != nil {
			t.Fatal(err)
		}
		ev := model.NewEvaluator(w.TapeModel())
		q := make([]float64, ev.Dim())
		ev.LogDensityGrad(q, make([]float64, ev.Dim()))
		if ev.TapeNodes != want.nodes || ev.TapeEdges != want.edges {
			t.Errorf("%s: legacy tape has %d nodes, %d edges; want %d, %d",
				want.name, ev.TapeNodes, ev.TapeEdges, want.nodes, want.edges)
		}
	}
}

// TestLegacyDensityBitsUnchanged pins the legacy racial, 12cities and
// disease densities to the bits they had before their data-only constants
// (lchoose per cell, log y! per city-year, the Gamma prior's normaliser)
// moved out of the evaluation: log density and an FNV-1a hash over the
// gradient's bit patterns at scale 0.5, seed 3, q_i = 0.1·(i mod 7 − 3),
// recorded at the parent commit with the in-place formulas. The
// arch-independent half of this contract — hoisted form ≡ closed form,
// bit for bit — is dist.TestHoistedConstantsBitIdentical; these golden
// words additionally depend on the platform's exp and log, so they are
// checked where they were recorded.
func TestLegacyDensityBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bit patterns were recorded on amd64")
	}
	for _, want := range []struct {
		name         string
		lpBits, grad uint64
	}{
		{"racial", 0xc0def244d21cd5a7, 0x35cab5e3bc6c3a43},
		{"12cities", 0xc1ae34103cfcfc90, 0x2e4f17e593f799ae},
		{"disease", 0xc0889001f5177598, 0xbdef2e44bd285c7e},
	} {
		w, err := New(want.name, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		lp, lpBits, grad := densityWords(w.TapeModel())
		if lpBits != want.lpBits || grad != want.grad {
			t.Errorf("%s: legacy density %.17g (bits %#x, gradient hash %#x), want bits %#x, hash %#x",
				want.name, lp, lpBits, grad, want.lpBits, want.grad)
		}
	}
}

// densityWords evaluates m at q_i = 0.1·(i mod 7 − 3) and returns the log
// density, its bits and an FNV-1a hash over the gradient's bit patterns.
func densityWords(m model.Model) (lp float64, lpBits, grad uint64) {
	ev := model.NewEvaluator(m)
	q := make([]float64, ev.Dim())
	for i := range q {
		q[i] = 0.1 * float64(i%7-3)
	}
	g := make([]float64, ev.Dim())
	lp = ev.LogDensityGrad(q, g)
	h := fnv.New64a()
	for _, v := range g {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return lp, math.Float64bits(lp), h.Sum64()
}

// TestKernelDensityBitsUnchanged pins the default (kernel-path) density of
// every job kind the benchmark mixes run (glm-sweep, tape-mix, node-small,
// fleet-small, fit-free), at the mix's scale and dataset seed 3. The
// butterfly and survival words were re-recorded when Occupancy, CJS and
// LogitJacobian moved onto the block links (disease, the third kernel
// that move touched, reads the words it had before it at this point);
// every other row holds the words it had before, and this is the tier-1
// proof that no other workload's draws moved. Like the legacy pins the
// words depend on the platform's exp and log.
func TestKernelDensityBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bit patterns were recorded on amd64")
	}
	for _, want := range []struct {
		name         string
		scale        float64
		lpBits, grad uint64
	}{
		{"tickets", 0.05, 0xc0746b8addc08d42, 0x9d314b6cc6247077},
		{"memory", 0.3, 0xc0a7b50b60cc9363, 0x768a98db1a6b12d6},
		{"12cities", 0.25, 0xc193fe0ac89ced0c, 0x97483444d02d1ed0},
		{"ad", 0.25, 0xc06dd5f0616eab08, 0xbf8d42f37858abc8},
		{"butterfly", 0.25, 0xc055211012a6d717, 0x5b86132eece9dd95},
		{"survival", 0.25, 0xc09b28b9449181c4, 0x4103a8a60a3f3360},
		{"ad", 1, 0xc08c0e99d946cbfd, 0xa38c5e9d5d1236c2},
		{"12cities", 1, 0xc1d80ee18d92b404, 0xf140e706b4c1f630},
		{"memory", 0.5, 0xc0b66ead0d6a43de, 0x8151e1ac027dc360},
		{"tickets", 0.25, 0xc0987a423f7090b5, 0x16fb42e9bcd7f8fd},
		{"disease", 0.03, 0xc04fd776096c04dc, 0xd2ef21a607105b30},
		{"votes", 0.02, 0xc04b9aca28fabae0, 0xbaab1f3a93d32842},
		{"racial", 0.25, 0xc0c92bbc6143a8f0, 0x5e5b4cc454135345},
		{"butterfly", 0.5, 0xc07064c707ca7e81, 0xdd14cb508ce0d13f},
		{"survival", 0.5, 0xc0a9f6eafe595f26, 0x655e730d1ab37987},
	} {
		w, err := New(want.name, want.scale, 3)
		if err != nil {
			t.Fatal(err)
		}
		lp, lpBits, grad := densityWords(w.Model)
		if lpBits != want.lpBits || grad != want.grad {
			t.Errorf("%s@%g: kernel density %.17g (bits %#x, gradient hash %#x), want bits %#x, hash %#x",
				want.name, want.scale, lp, lpBits, grad, want.lpBits, want.grad)
		}
	}
}
