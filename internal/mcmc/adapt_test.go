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

func TestMassAdaptationAblation(t *testing.T) {
	// On a badly scaled Gaussian, the adapted metric should need far
	// fewer gradient evaluations post-warmup than the unit metric.
	scales := &gaussianTarget{
		mu: []float64{0, 0, 0},
		sd: []float64{0.05, 1, 20},
	}
	run := func(disable bool) int64 {
		res := Run(Config{
			Chains: 2, Iterations: 800, Seed: 31,
			DisableMassAdaptation: disable,
		}, func() Target { return scales })
		var post int64
		for _, ch := range res.Chains {
			for _, w := range ch.Work[400:] {
				post += w
			}
		}
		return post
	}
	adapted := run(false)
	unit := run(true)
	if unit <= adapted {
		t.Errorf("unit metric (%d evals) should cost more than adapted (%d) on a badly scaled target",
			unit, adapted)
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
