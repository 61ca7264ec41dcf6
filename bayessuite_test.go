package bayessuite

import (
	"math"
	"testing"

	"bayessuite/internal/sched"
	"bayessuite/internal/serve"
)

// tinyModel is a 2-D Gaussian through the public API.
type tinyModel struct{}

func (tinyModel) Name() string { return "tiny" }
func (tinyModel) Dim() int     { return 2 }
func (tinyModel) LogPosterior(t *Tape, q []Var) Var {
	b := NewBuilder(t)
	b.Add(t.MulConst(t.Square(t.AddConst(q[0], -1)), -0.5))
	b.Add(t.MulConst(t.Square(q[1]), -0.5))
	return b.Result()
}

func TestFitPublicAPI(t *testing.T) {
	res := Fit(tinyModel{}, Config{Chains: 4, Iterations: 800, Seed: 3, Parallel: true})
	if r := res.MaxRHat(); r > 1.1 {
		t.Errorf("R-hat %.3f", r)
	}
	sums := res.Summaries([]string{"x", "y"})
	if math.Abs(sums[0].Mean-1) > 0.15 || math.Abs(sums[1].Mean) > 0.15 {
		t.Errorf("posterior means: %.3f, %.3f", sums[0].Mean, sums[1].Mean)
	}
	if elided, _ := res.Elided(); elided {
		t.Error("no elision requested")
	}
}

func TestFitWithElision(t *testing.T) {
	res := Fit(tinyModel{}, Config{Chains: 4, Iterations: 4000, Seed: 3, Elide: true})
	elided, at := res.Elided()
	if !elided {
		t.Fatal("easy Gaussian should converge early")
	}
	if at >= 4000 || at < 100 {
		t.Errorf("stopped at %d", at)
	}
	if res.Detector == nil || len(res.Detector.Trace) == 0 {
		t.Error("detector trace missing")
	}
}

func TestFitSamplerSelection(t *testing.T) {
	for _, s := range []Sampler{NUTS, HMC, MetropolisHastings} {
		res := Fit(tinyModel{}, Config{Chains: 2, Iterations: 300, Seed: 5, Sampler: s})
		if len(res.Chains) != 2 || res.Chains[0].Samples.Len() != 300 {
			t.Errorf("%s: wrong run shape", s)
		}
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 10 {
		t.Fatalf("%d workloads", len(names))
	}
	w, err := NewWorkload("butterfly", 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Info.Name != "butterfly" || w.Model.Dim() == 0 {
		t.Error("workload malformed")
	}
	if _, err := NewWorkload("nope", 1, 1); err == nil {
		t.Error("expected error")
	}
	if len(Suite(0.25, 2)) != 10 {
		t.Error("suite incomplete")
	}
}

func TestCharacterizePublicAPI(t *testing.T) {
	w, err := NewWorkload("12cities", 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := ProfileWorkload(w)
	m := Characterize(p, Skylake, 4)
	if m.IPC <= 0 || m.TimeSeconds <= 0 || m.EnergyJoules <= 0 {
		t.Errorf("degenerate metrics: %+v", m)
	}
	if m.Platform != "Skylake" || m.Cores != 4 {
		t.Errorf("metrics metadata: %+v", m)
	}
}

func TestVotesForecasterInterface(t *testing.T) {
	w, err := NewWorkload("votes", 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	fc, ok := w.Model.(Forecaster)
	if !ok {
		t.Fatal("votes does not implement Forecaster")
	}
	q := make([]float64, w.Model.Dim())
	out := fc.ForecastMean(q, 0, []float64{4.4, 4.8})
	if len(out) != 2 {
		t.Errorf("forecast length %d", len(out))
	}
	for _, v := range out {
		if math.IsNaN(v) {
			t.Error("NaN forecast")
		}
	}
}

// TestCalibrateSchedulerFitsSuiteCalibration: the library's scheduler is
// fitted on exactly the service's calibration points.
func TestCalibrateSchedulerFitsSuiteCalibration(t *testing.T) {
	s, err := CalibrateScheduler(7)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := serve.SuiteCalibration(7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if *s.Predictor != *want {
		t.Fatalf("CalibrateScheduler predictor %+v, want %+v", *s.Predictor, *want)
	}
}
