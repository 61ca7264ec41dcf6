package mcmc

import (
	"math"
	"testing"

	"bayessuite/internal/rng"
)

func newTestRNG(seed uint64) *rng.RNG { return rng.New(seed) }

func TestDualAveragingConvergesToTarget(t *testing.T) {
	// Simulated environment: acceptance falls with step size as
	// a(eps) = exp(-eps); dual averaging should settle near the eps with
	// a(eps) = target.
	target := 0.8
	da := newDualAveraging(1.0, target)
	eps := 1.0
	for i := 0; i < 2000; i++ {
		accept := math.Exp(-eps)
		eps = da.update(accept)
	}
	final := da.adapted()
	want := -math.Log(target) // a(eps)=target  =>  eps = -ln(0.8) ~ 0.223
	if math.Abs(final-want) > 0.05*want+0.02 {
		t.Errorf("adapted eps %.4f, want ~%.4f", final, want)
	}
}

func TestDualAveragingRestart(t *testing.T) {
	da := newDualAveraging(0.5, 0.8)
	for i := 0; i < 50; i++ {
		da.update(0.2)
	}
	da.restart(0.9)
	if math.Abs(math.Exp(da.logEps)-0.9) > 1e-12 {
		t.Error("restart did not recenter the step size")
	}
	if da.count != 0 || da.hBar != 0 {
		t.Error("restart did not clear the averaging state")
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	w := newWelford(2)
	data := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}}
	for _, x := range data {
		w.add(x)
	}
	out := make([]float64, 2)
	w.variance(out)
	// Sample variances are 2.5 and 250; regularization with n=5 shrinks
	// by n/(n+5) = 0.5 toward 1e-3.
	want0 := 0.5*2.5 + 0.5*1e-3
	want1 := 0.5*250 + 0.5*1e-3
	if math.Abs(out[0]-want0) > 1e-9 || math.Abs(out[1]-want1) > 1e-6 {
		t.Errorf("regularized variances %v, want [%g, %g]", out, want0, want1)
	}
	w.reset()
	w.variance(out)
	if out[0] != 1 || out[1] != 1 {
		t.Error("reset+insufficient data should give unit metric")
	}
}

func TestWarmupScheduleStructure(t *testing.T) {
	s := newWarmupSchedule(1000)
	if s.initBuffer <= 0 || s.termBuffer <= 0 {
		t.Fatal("missing buffers")
	}
	if len(s.windowEnds) == 0 {
		t.Fatal("no adaptation windows")
	}
	end := 1000 - s.termBuffer
	last := 0
	for _, e := range s.windowEnds {
		if e <= last || e > end {
			t.Errorf("window end %d out of order or beyond slow phase (%d)", e, end)
		}
		last = e
	}
	if s.windowEnds[len(s.windowEnds)-1] != end {
		t.Errorf("final window should end the slow phase: %d vs %d",
			s.windowEnds[len(s.windowEnds)-1], end)
	}
	// Phase membership.
	if s.inSlowWindow(0) {
		t.Error("init buffer misclassified")
	}
	if !s.inSlowWindow(s.initBuffer) {
		t.Error("slow phase start misclassified")
	}
	if s.inSlowWindow(999) {
		t.Error("terminal buffer misclassified")
	}
}

func TestWarmupScheduleTiny(t *testing.T) {
	s := newWarmupSchedule(10)
	if len(s.windowEnds) != 0 {
		t.Error("tiny warmup should have no mass windows")
	}
	for it := 0; it < 10; it++ {
		if s.windowEnd(it) {
			t.Error("tiny warmup should never trigger a window end")
		}
	}
}

// TestMassAdaptationTracksVariances: on a badly scaled Gaussian, warm-up
// must leave the diagonal inverse metric at the target's variances
// (0.05², 1, 20²), each within a factor of 2, in both Hamiltonian samplers.
func TestMassAdaptationTracksVariances(t *testing.T) {
	g := &gaussianTarget{
		mu: []float64{0, 0, 0},
		sd: []float64{0.05, 1, 20},
	}
	for _, kind := range []SamplerKind{HMC, NUTS} {
		var cks []*Checkpoint
		Run(Config{
			Chains: 2, Iterations: 800, Sampler: kind, Seed: 31,
			CheckpointEvery: 800, CheckpointSink: collectSink(&cks),
		}, func() Target { return g })
		for c, cc := range cks[0].Chains {
			for d, sd := range g.sd {
				if ratio := cc.State.InvMass[d] / (sd * sd); ratio < 0.5 || ratio > 2 {
					t.Errorf("%v chain %d: inverse metric %d is %g, %.2f× the variance %g",
						kind, c, d, cc.State.InvMass[d], ratio, sd*sd)
				}
			}
		}
	}
}

func TestInitPointFindsFiniteDensity(t *testing.T) {
	g := newGaussian()
	q, fellBack := initPoint(g, newTestRNG(5))
	if fellBack {
		t.Error("fell back to origin on an everywhere-finite density")
	}
	if lp := g.LogDensity(q); math.IsInf(lp, -1) || math.IsNaN(lp) {
		t.Errorf("init point has bad density %g", lp)
	}
	for _, v := range q {
		if v < -2 || v > 2 {
			t.Errorf("init coordinate %g outside radius", v)
		}
	}
}
