package serve

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"bayessuite/internal/sched"
)

// testPredictor is a hand-built LLC predictor with a known threshold, so
// placement tests never pay for suite calibration.
func testPredictor() *sched.Predictor {
	return &sched.Predictor{Slope: 0.025, Intercept: 0.3, FitFloor: 1, ThresholdKB: 110}
}

// smallSpec is a job that samples in milliseconds: tiny dataset, budget
// below the elision floor.
func smallSpec(seed uint64) JobSpec {
	return JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 40, Chains: 2, Seed: seed}
}

// gatedServer returns a server whose single worker announces each job on
// entered and then blocks until gate closes — the deterministic way to
// hold the queue at a known occupancy.
func gatedServer(t *testing.T, cfg Config) (*Server, chan *Job, chan struct{}) {
	t.Helper()
	if cfg.Predictor == nil {
		cfg.Predictor = testPredictor()
	}
	s := NewServer(cfg)
	entered := make(chan *Job, 64)
	gate := make(chan struct{})
	s.mu.Lock()
	s.beforeRun = func(j *Job) {
		entered <- j
		<-gate
	}
	s.mu.Unlock()
	return s, entered, gate
}

func waitState(t *testing.T, job *Job, want JobState, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := job.Status()
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (err %q), want %s", st.ID, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitDone(t *testing.T, job *Job, timeout time.Duration) JobStatus {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s did not finish in %v (state %s)", job.ID(), timeout, job.Status().State)
	}
	return job.Status()
}

// TestBackpressureAtCapacity: once one job is claimed and QueueCap more
// are waiting, the next submission is refused with ErrQueueFull, and the
// refusal clears as soon as the queue drains.
func TestBackpressureAtCapacity(t *testing.T) {
	s, entered, gate := gatedServer(t, Config{Workers: 1, QueueCap: 2})

	first, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the worker holds first; the queue is empty again

	queued := make([]*Job, 0, 2)
	for i := 0; i < 2; i++ {
		j, err := s.Submit(smallSpec(uint64(2 + i)))
		if err != nil {
			t.Fatalf("submission %d within capacity refused: %v", i, err)
		}
		queued = append(queued, j)
	}
	if _, err := s.Submit(smallSpec(9)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: err %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.QueueDepth != 2 {
		t.Fatalf("queue depth %d, want 2", st.QueueDepth)
	}

	close(gate)
	waitDone(t, first, 30*time.Second)
	for _, j := range queued {
		if st := waitDone(t, j, 30*time.Second); st.State != Done {
			t.Fatalf("queued job ended %s (%s), want done", st.State, st.Error)
		}
	}
	// Capacity is available again.
	relief, err := s.Submit(smallSpec(10))
	if err != nil {
		t.Fatalf("post-drain submit refused: %v", err)
	}
	if st := waitDone(t, relief, 30*time.Second); st.State != Done {
		t.Fatalf("relief job ended %s, want done", st.State)
	}
}

// TestCancelWhileQueued: canceling a job the workers have not claimed
// finalizes it immediately; it never starts and the worker skips it.
func TestCancelWhileQueued(t *testing.T) {
	s, entered, gate := gatedServer(t, Config{Workers: 1, QueueCap: 8})

	blocker, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	victim, err := s.Submit(smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Cancel(victim.ID())
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st.State != Canceled {
		t.Fatalf("state %s after queued cancel, want canceled immediately", st.State)
	}
	select {
	case <-victim.Done():
	default:
		t.Fatal("done channel not closed after queued cancel")
	}
	if _, err := s.Cancel(victim.ID()); !errors.Is(err, ErrFinished) {
		t.Fatalf("second cancel: err %v, want ErrFinished", err)
	}

	close(gate)
	waitDone(t, blocker, 30*time.Second)

	// A job submitted after the canceled one still runs: the worker
	// skipped the canceled entry rather than wedging on it.
	after, err := s.Submit(smallSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, after, 30*time.Second); st.State != Done {
		t.Fatalf("post-cancel job ended %s, want done", st.State)
	}
	final := victim.Status()
	if final.StartedAt != nil || final.Placement != nil || final.Progress != 0 {
		t.Fatalf("canceled-while-queued job shows signs of running: %+v", final)
	}
	if !strings.Contains(final.Error, "queued") {
		t.Fatalf("cancel cause %q does not say it was queued", final.Error)
	}
}

// TestCancelWhileRunning: canceling mid-sampling interrupts the run
// promptly and retains the completed draws as a partial result.
func TestCancelWhileRunning(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCap: 4, Predictor: testPredictor()})
	spec := JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 1 << 20, Chains: 2, Seed: 3, NoElide: true}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, Running, 30*time.Second)
	// Let it make some progress so the partial result is non-trivial.
	deadline := time.Now().Add(30 * time.Second)
	for job.Status().Progress < 10 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	// A job counts as running from the moment a worker claims it; it is
	// placed before its first iteration.
	if job.Status().Placement == nil {
		t.Fatal("sampling job has no placement decision")
	}
	if _, err := s.Cancel(job.ID()); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	final := waitDone(t, job, 30*time.Second)
	if final.State != Canceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
	if !final.Interrupted {
		t.Fatal("canceled run not marked interrupted")
	}
	if !strings.Contains(final.Error, "running") {
		t.Fatalf("cancel cause %q does not say it was running", final.Error)
	}
	raw := job.Raw()
	if raw == nil || raw.Iterations == 0 {
		t.Fatal("partial draws were discarded on cancel")
	}
	if raw.Iterations >= 1<<20 {
		t.Fatal("cancel did not interrupt the run")
	}
	payload, ready := job.Result()
	if !ready || !payload.Partial {
		t.Fatalf("result ready=%v partial=%v, want partial result available", ready, payload.Partial)
	}
}

// TestJobTimeout: a per-job timeout fails the job but keeps the aligned
// partial draws.
func TestJobTimeout(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCap: 4, Predictor: testPredictor()})
	spec := JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 1 << 20, Chains: 2, Seed: 4,
		NoElide: true, TimeoutSec: 0.15}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, job, 60*time.Second)
	if final.State != Failed {
		t.Fatalf("state %s (%s), want failed on timeout", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "timeout") {
		t.Fatalf("error %q does not mention timeout", final.Error)
	}
	if raw := job.Raw(); raw == nil || !raw.Interrupted {
		t.Fatal("timeout did not leave an interrupted partial result")
	}
}

// TestGracefulDrain: Shutdown completes the job a worker already holds,
// cancels the jobs still queued, and refuses new admissions.
func TestGracefulDrain(t *testing.T) {
	s, entered, gate := gatedServer(t, Config{Workers: 1, QueueCap: 8})

	running, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	queued, err := s.Submit(smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to flip draining, then release the worker.
	time.Sleep(20 * time.Millisecond)
	if _, err := s.Submit(smallSpec(3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err %v, want ErrDraining", err)
	}
	close(gate)

	if err := <-drained; err != nil {
		t.Fatalf("drain returned %v", err)
	}
	if st := running.Status(); st.State != Done {
		t.Fatalf("in-flight job ended %s (%s), want done — drain must complete running jobs", st.State, st.Error)
	}
	if st := queued.Status(); st.State != Canceled || !strings.Contains(st.Error, "draining") {
		t.Fatalf("queued job ended %s (%q), want canceled by drain", st.State, st.Error)
	}
	if st := s.Stats(); !st.Draining {
		t.Fatal("stats does not report draining")
	}
}

// TestFrequencyFirstFallback: a calibration set with no linear regime
// switches the server to frequency-first placement — every job goes to
// the high-frequency platform with the fallback spelled out.
func TestFrequencyFirstFallback(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCap: 4, CalibrationPoints: []sched.Point{
		{Name: "a", ModeledDataKB: 5, LLCMPKI4Core: 0.1},
		{Name: "b", ModeledDataKB: 40, LLCMPKI4Core: 0.4},
		{Name: "c", ModeledDataKB: 900, LLCMPKI4Core: 0.9},
	}})
	fallback, note := s.FrequencyFirst()
	if !fallback {
		t.Fatalf("server fitted a predictor from all-sub-floor points (%s)", note)
	}
	if !strings.Contains(note, "no linear regime") {
		t.Fatalf("fallback note %q does not explain the missing linear regime", note)
	}
	// tickets is the suite's most LLC-hungry workload; under fallback it
	// must still go frequency-first.
	job, err := s.Submit(JobSpec{Workload: "tickets", Scale: 0.1, Iterations: 10, Chains: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, job, 60*time.Second)
	if st.Placement == nil {
		t.Fatal("no placement decision")
	}
	if !st.Placement.FrequencyFirst || st.Placement.Platform != "Skylake" {
		t.Fatalf("fallback placement %+v, want frequency-first Skylake", st.Placement)
	}
	stats := s.Stats()
	if !stats.FrequencyFirst || stats.PredictorThresholdKB != 0 {
		t.Fatalf("stats %+v does not report the fallback", stats)
	}
}

// TestPredictorPlacement: with a fitted predictor, jobs land on the
// platform the LLC classification picks, and the decision says why.
func TestPredictorPlacement(t *testing.T) {
	// Threshold of 0.5 KB: even tiny 12cities (≈0.9 KB) classifies
	// LLC-bound.
	bigLLC := NewServer(Config{Workers: 1, QueueCap: 4,
		Predictor: &sched.Predictor{Slope: 1, Intercept: 0, FitFloor: 1, ThresholdKB: 0.5}})
	job, err := bigLLC.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, job, 60*time.Second)
	if st.Placement == nil || st.Placement.Platform != "Broadwell" || !st.Placement.LLCBound {
		t.Fatalf("LLC-bound placement %+v, want Broadwell", st.Placement)
	}
	if !strings.Contains(st.Placement.Reason, "threshold") {
		t.Fatalf("placement reason %q does not explain the threshold decision", st.Placement.Reason)
	}

	small := NewServer(Config{Workers: 1, QueueCap: 4, Predictor: testPredictor()})
	job2, err := small.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, job2, 60*time.Second)
	if st2.Placement == nil || st2.Placement.Platform != "Skylake" || st2.Placement.LLCBound {
		t.Fatalf("below-threshold placement %+v, want Skylake", st2.Placement)
	}
}

// TestSubmitValidation: bad specs are refused at admission.
func TestSubmitValidation(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCap: 4, Predictor: testPredictor()})
	bad := []JobSpec{
		{Workload: "nope"},
		{Workload: "12cities", Scale: 2},
		{Workload: "12cities", Chains: -1},
		{Workload: "12cities", Sampler: "gibbs"},
		{Workload: "12cities", TimeoutSec: -1},
	}
	for _, spec := range bad {
		if _, err := s.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("spec %+v: err %v, want ErrBadSpec", spec, err)
		}
	}
	if _, err := s.Job("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job: err %v, want ErrNotFound", err)
	}
	// Defaults fill in: iterations from the registry, 4 chains, scale 1.
	job, err := s.Submit(JobSpec{Workload: "12cities", Iterations: 10, Chains: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if job.Status().Spec.Sampler != "nuts" {
		t.Errorf("default sampler %q, want nuts", job.Status().Spec.Sampler)
	}
	waitDone(t, job, 60*time.Second)
}

// TestGradBatchOccupancy: two jobs of one spec on a batchable workload
// produce bit-identical draws — the determinism contract — at GOMAXPROCS
// 1, where a served job's chains timeshare one core.
func TestGradBatchOccupancy(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	s := NewServer(Config{Workers: 1, QueueCap: 4, Predictor: testPredictor()})
	spec := JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 60, Chains: 4, Seed: 11, NoElide: true}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, job, 60*time.Second); st.State != Done {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}

	// Same spec again: the draws, and with them the gradient work, must
	// match job to job.
	job2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, job2, 60*time.Second); st.State != Done {
		t.Fatalf("rerun ended %s (%s), want done", st.State, st.Error)
	}
	a, b := job.Raw(), job2.Raw()
	if a == nil || b == nil || len(a.Chains) != len(b.Chains) {
		t.Fatal("missing results")
	}
	for c := range a.Chains {
		sa, sb := a.Chains[c].Samples, b.Chains[c].Samples
		if sa.Len() != sb.Len() {
			t.Fatalf("chain %d: %d vs %d draws", c, sa.Len(), sb.Len())
		}
		for i := 0; i < sa.Len(); i++ {
			for d := 0; d < sa.Dim(); d++ {
				if math.Float64bits(sa.At(i, d)) != math.Float64bits(sb.At(i, d)) {
					t.Fatalf("chain %d draw %d param %d differs: %v vs %v",
						c, i, d, sa.At(i, d), sb.At(i, d))
				}
			}
		}
	}
	if a.TotalWork() != b.TotalWork() {
		t.Fatalf("rerun evaluated %d gradients, first run %d", b.TotalWork(), a.TotalWork())
	}
}

// TestSummariesOnConstrainedScale: a job result summarises the model's
// natural scale under the model's names — 12cities' sigma_alpha is a
// standard deviation, every survival parameter a probability — while
// max_rhat stays on the unconstrained draws the stop rule judges.
func TestSummariesOnConstrainedScale(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCap: 4, Predictor: testPredictor()})
	for _, tc := range []struct {
		workload string
		check    func(ParamSummary) bool
	}{
		{"12cities", func(p ParamSummary) bool { return p.Name != "sigma_alpha" || p.Q05 > 0 }},
		{"survival", func(p ParamSummary) bool {
			return p.Q05 > 0 && p.Q95 < 1 && p.Mean > 0 && p.Mean < 1 && p.Median > 0 && p.Median < 1
		}},
	} {
		job, err := s.Submit(JobSpec{Workload: tc.workload, Scale: 0.25, Iterations: 400, Chains: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, job, 60*time.Second); st.State != Done {
			t.Fatalf("%s: state %s (%s)", tc.workload, st.State, st.Error)
		}
		res, _ := job.Result()
		if len(res.Summaries) == 0 || res.MaxRHat <= 0 {
			t.Fatalf("%s: %d summaries, max_rhat %g", tc.workload, len(res.Summaries), res.MaxRHat)
		}
		named := false
		for _, p := range res.Summaries {
			named = named || p.Name == "sigma_alpha"
			if !tc.check(p) {
				t.Errorf("%s: %+v is not on the constrained scale", tc.workload, p)
			}
		}
		if tc.workload == "12cities" && !named {
			t.Errorf("12cities: no sigma_alpha summary in %+v", res.Summaries)
		}
	}
}
