package serve

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"bayessuite/internal/hw"
	"bayessuite/internal/perf"
	"bayessuite/internal/sched"
	"bayessuite/internal/workloads"
)

// TestElisionJoulesCharacterisesTheSpec: the energy account depends on
// the spec and not on the draw. survival's tape changes shape with the
// seed, so before the per-spec memo two seeds of one spec disagreed by a
// few per cent; ad's does not, and its account must equal the direct
// hardware-model computation to the last bit.
func TestElisionJoulesCharacterisesTheSpec(t *testing.T) {
	pl := PlacementDecision{Platform: hw.Skylake.Codename}
	var got []float64
	for _, seed := range []uint64{3, 4, 5} {
		w, err := workloads.New("survival", 0.25, seed)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, elisionJoules(w, 0.25, pl, 300, 4))
	}
	for i, j := range got {
		if j <= 0 || math.Float64bits(j) != math.Float64bits(got[0]) {
			t.Errorf("seed #%d: %v J, seed #0: %v J — equal specs must save equal energy", i, j, got[0])
		}
	}

	w, err := workloads.New("ad", 0.25, 11)
	if err != nil {
		t.Fatal(err)
	}
	direct := hw.Characterize(perf.Static(w), hw.Broadwell, 4).EnergyJoules * 300 / float64(w.Info.Iterations)
	viaSpec := elisionJoules(w, 0.25, PlacementDecision{Platform: hw.Broadwell.Codename}, 300, 4)
	if math.Float64bits(viaSpec) != math.Float64bits(direct) {
		t.Errorf("ad: per-spec account %v J, direct characterisation %v J", viaSpec, direct)
	}

	if j := elisionJoules(w, 0.25, PlacementDecision{Platform: "Zen"}, 300, 4); j != 0 {
		t.Errorf("unknown platform saved %v J", j)
	}
}

// TestEqualSpecsDifferentSeedsEqualSavings runs two jobs of one spec and
// different seeds on two workers at once — so both reach the energy
// account of a spec nobody has characterised yet at about the same time
// (the -race half of the test) — and requires the same energy per elided
// iteration from both.
func TestEqualSpecsDifferentSeedsEqualSavings(t *testing.T) {
	s := NewServer(Config{Workers: 2, Predictor: testPredictor()})
	defer s.Shutdown(context.Background())

	// A scale no other test uses, so the spec is new to the process.
	spec := JobSpec{Workload: "butterfly", Scale: 0.23, Iterations: 1200, Chains: 4}
	var jobs []*Job
	for _, seed := range []uint64{21, 22} {
		spec.Seed = seed
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	var perIter []float64
	for _, job := range jobs {
		st := waitDone(t, job, 60*time.Second)
		if st.State != Done || !st.Elided || st.SavedIterations <= 0 || st.SavedJoules <= 0 {
			t.Fatalf("job %s: state %s elided %v saved %d iters %g J", st.ID, st.State, st.Elided, st.SavedIterations, st.SavedJoules)
		}
		perIter = append(perIter, st.SavedJoules/float64(st.SavedIterations))
	}
	if d := math.Abs(perIter[0] - perIter[1]); d > 1e-12*perIter[0] {
		t.Errorf("joules per elided iteration %v vs %v: equal specs, different seeds", perIter[0], perIter[1])
	}
}

// TestSuiteCalibrationIndependentOfGOMAXPROCS: the parallel calibration
// returns the serial loop's points in the serial loop's order, and a
// server calibrated on them fits a predictor rather than falling back to
// frequency-first placement.
func TestSuiteCalibrationIndependentOfGOMAXPROCS(t *testing.T) {
	const seed = 7
	var want []sched.Point
	for _, name := range workloads.Names() {
		for _, frac := range []float64{1, 0.5, 0.25} {
			w, err := workloads.New(name, frac, seed)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, sched.Point{
				Name:          name,
				ModeledDataKB: float64(w.ModeledDataBytes()) / 1024,
				LLCMPKI4Core:  hw.SimulateLLC(perf.Static(w), hw.Skylake, 4),
			})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{8, 2, 1} {
		runtime.GOMAXPROCS(procs)
		got, err := SuiteCalibration(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: calibration points differ from the serial loop\n got  %v\n want %v", procs, got, want)
		}
	}
	s := NewServer(Config{Workers: 1, CalibrationPoints: want})
	defer s.Shutdown(context.Background())
	if fallback, note := s.FrequencyFirst(); fallback {
		t.Errorf("server on the suite calibration fell back to frequency-first placement (%s)", note)
	}
}
