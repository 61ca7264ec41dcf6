package serve

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bayessuite/internal/mcmc"
)

// faultSpec is a job long enough to cross the default checkpoint cadence
// (50) before a mid-run fault at iteration 60.
func faultSpec(seed uint64) JobSpec {
	return JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 120, Chains: 2,
		Seed: seed, NoElide: true}
}

// faultServer builds a server whose fault hook quarantines the given
// chains (all when nil) at iteration 60 on every attempt ≤ failAttempts.
func faultServer(cfg Config, failAttempts int, chains map[int]bool) *Server {
	if cfg.Predictor == nil {
		cfg.Predictor = testPredictor()
	}
	cfg.InjectFaultHook = func(job *Job, attempt int) func(chain, iter int) mcmc.FaultAction {
		if attempt > failAttempts {
			return nil
		}
		return func(chain, iter int) mcmc.FaultAction {
			if iter == 60 && (chains == nil || chains[chain]) {
				return mcmc.FaultActNonFinite
			}
			return mcmc.FaultActNone
		}
	}
	return NewServer(cfg)
}

// TestRetryFromCheckpoint: a run whose every chain faults retries from
// the last all-healthy checkpoint and completes on the second attempt.
func TestRetryFromCheckpoint(t *testing.T) {
	s := faultServer(Config{Workers: 1, QueueCap: 4,
		RetryBackoff: time.Millisecond}, 1, nil)
	job, err := s.Submit(faultSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, job, 60*time.Second)
	if final.State != Done {
		t.Fatalf("state %s (%s), want done after retry", final.State, final.Error)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", final.Attempts)
	}
	// The clean retry clears the prior attempt's fault records.
	if len(final.ChainFaults) != 0 {
		t.Fatalf("successful retry still reports faults: %+v", final.ChainFaults)
	}
	raw := job.Raw()
	if raw == nil || raw.Iterations != 120 {
		t.Fatalf("retried run retained %v iterations, want full budget 120", raw)
	}
	payload, ready := job.Result()
	if !ready || payload.Partial || len(payload.Summaries) == 0 {
		t.Fatalf("result ready=%v partial=%v summaries=%d, want complete result",
			ready, payload.Partial, len(payload.Summaries))
	}
	st := s.Stats()
	if st.ChainFaults != 2 || st.Retries != 1 {
		t.Fatalf("stats chain_faults=%d retries=%d, want 2 and 1", st.ChainFaults, st.Retries)
	}
}

// TestPartialFaultDone: one quarantined chain does not fail the job — the
// survivors' summaries come back Done with the fault attached.
func TestPartialFaultDone(t *testing.T) {
	s := faultServer(Config{Workers: 1, QueueCap: 4}, 99, map[int]bool{0: true})
	job, err := s.Submit(faultSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, job, 60*time.Second)
	if final.State != Done {
		t.Fatalf("state %s (%s), want done despite one faulted chain", final.State, final.Error)
	}
	if final.Attempts != 1 {
		t.Fatalf("attempts %d, want 1 (partial faults must not retry)", final.Attempts)
	}
	if len(final.ChainFaults) != 1 || final.ChainFaults[0].Chain != 0 ||
		final.ChainFaults[0].Kind != "non-finite" || final.ChainFaults[0].Iteration != 60 {
		t.Fatalf("chain faults %+v, want chain 0 non-finite at 60", final.ChainFaults)
	}
	payload, ready := job.Result()
	if !ready || len(payload.ChainFaults) != 1 || len(payload.Summaries) == 0 {
		t.Fatalf("payload ready=%v faults=%d summaries=%d", ready, len(payload.ChainFaults), len(payload.Summaries))
	}
	st := s.Stats()
	if st.ChainFaults != 1 || st.Retries != 0 {
		t.Fatalf("stats chain_faults=%d retries=%d, want 1 and 0", st.ChainFaults, st.Retries)
	}
}

// TestRetriesExhausted: a job that faults every attempt fails once its
// retry budget runs out, keeping the fault records and partial prefix.
func TestRetriesExhausted(t *testing.T) {
	s := faultServer(Config{Workers: 1, QueueCap: 4, MaxRetries: 1,
		RetryBackoff: time.Millisecond}, 99, nil)
	job, err := s.Submit(faultSpec(23))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, job, 60*time.Second)
	if final.State != Failed {
		t.Fatalf("state %s, want failed after retries exhausted", final.State)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (1 run + 1 retry)", final.Attempts)
	}
	if !strings.Contains(final.Error, "all 2 chains faulted") || !strings.Contains(final.Error, "2 attempt") {
		t.Fatalf("error %q does not describe the exhausted retries", final.Error)
	}
	if len(final.ChainFaults) != 2 {
		t.Fatalf("chain faults %+v, want both chains", final.ChainFaults)
	}
	payload, ready := job.Result()
	if !ready || !payload.Partial || len(payload.ChainFaults) != 2 {
		t.Fatalf("payload ready=%v partial=%v faults=%d", ready, payload.Partial, len(payload.ChainFaults))
	}
	if payload.Iterations != 60 {
		t.Fatalf("retained prefix %d, want 60 (the pre-fault draws)", payload.Iterations)
	}
	st := s.Stats()
	if st.ChainFaults != 4 || st.Retries != 1 || st.Failed != 1 {
		t.Fatalf("stats %+v, want 4 chain faults over 2 attempts and 1 retry", st)
	}
}

// TestWorkerPanicRecovered: a panic escaping a job (here: the pre-run
// hook) becomes that job's failure record, and the worker survives to run
// the next job.
func TestWorkerPanicRecovered(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueCap: 4, Predictor: testPredictor()})
	s.mu.Lock()
	s.beforeRun = func(j *Job) { panic("synthetic workload bug") }
	s.mu.Unlock()

	victim, err := s.Submit(smallSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, victim, 30*time.Second)
	if final.State != Failed {
		t.Fatalf("state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "worker panic") || !strings.Contains(final.Error, "synthetic workload bug") {
		t.Fatalf("error %q does not carry the panic text", final.Error)
	}
	if got := s.Stats().PanicsRecovered; got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}

	// The worker goroutine survived the panic.
	s.mu.Lock()
	s.beforeRun = nil
	s.mu.Unlock()
	next, err := s.Submit(smallSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, next, 30*time.Second); st.State != Done {
		t.Fatalf("job after panic ended %s (%s), want done", st.State, st.Error)
	}
}

// TestCancelWhileRetrying: canceling a job waiting out its backoff stops
// the timer and finalizes immediately.
func TestCancelWhileRetrying(t *testing.T) {
	s := faultServer(Config{Workers: 1, QueueCap: 4,
		RetryBackoff: time.Hour, RetryMaxBackoff: time.Hour}, 99, nil)
	job, err := s.Submit(faultSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, job, Retrying, 60*time.Second)
	if st.NextRetryAt == nil || st.Attempts != 1 {
		t.Fatalf("retrying status %+v, want next_retry_at and attempts 1", st)
	}
	if !strings.Contains(st.Error, "retrying from iteration 50") {
		t.Fatalf("retrying status error %q does not name the resume point", st.Error)
	}
	if got := s.Stats().Retrying; got != 1 {
		t.Fatalf("stats retrying = %d, want 1", got)
	}
	if _, err := s.Cancel(job.ID()); err != nil {
		t.Fatalf("cancel retrying: %v", err)
	}
	final := waitDone(t, job, 10*time.Second)
	if final.State != Canceled || !strings.Contains(final.Error, "awaiting retry") {
		t.Fatalf("final %s (%q), want canceled while awaiting retry", final.State, final.Error)
	}
}

// TestDrainWithRetryPending: Shutdown must not wait out a retry backoff —
// the pending retry is canceled and the drain completes promptly.
func TestDrainWithRetryPending(t *testing.T) {
	s := faultServer(Config{Workers: 1, QueueCap: 4,
		RetryBackoff: time.Hour, RetryMaxBackoff: time.Hour}, 99, nil)
	job, err := s.Submit(faultSpec(25))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, Retrying, 60*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain with retry pending: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v — it waited on the backoff", elapsed)
	}
	final := job.Status()
	if final.State != Canceled || !strings.Contains(final.Error, "retry pending") {
		t.Fatalf("final %s (%q), want canceled with retry pending", final.State, final.Error)
	}
}

// TestTerminalJobReleasesCheckpoint: a job that took a checkpoint lets go
// of it on every terminal transition — done, failed (a worker panic on
// the retry), faulted (retries exhausted), canceled and drained while
// awaiting a retry. The checkpoint is a copy of every chain's draw
// prefix; once the job has ended nothing resumes from it.
func TestTerminalJobReleasesCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cfg          Config
		failAttempts int
		panicOn      int // attempt whose pre-run hook panics; 0 = none
		end          func(t *testing.T, s *Server, job *Job)
		want         JobState
	}{
		{name: "done", want: Done},
		{name: "failed", cfg: Config{RetryBackoff: time.Millisecond},
			failAttempts: 1, panicOn: 2, want: Failed},
		{name: "faulted", cfg: Config{MaxRetries: 1, RetryBackoff: time.Millisecond},
			failAttempts: 99, want: Failed},
		{name: "canceled", cfg: Config{RetryBackoff: time.Hour, RetryMaxBackoff: time.Hour},
			failAttempts: 99, want: Canceled,
			end: func(t *testing.T, s *Server, job *Job) {
				waitState(t, job, Retrying, 60*time.Second)
				if _, err := s.Cancel(job.ID()); err != nil {
					t.Fatalf("cancel retrying: %v", err)
				}
			}},
		{name: "drained", cfg: Config{RetryBackoff: time.Hour, RetryMaxBackoff: time.Hour},
			failAttempts: 99, want: Canceled,
			end: func(t *testing.T, s *Server, job *Job) {
				waitState(t, job, Retrying, 60*time.Second)
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers, cfg.QueueCap = 1, 4
			var took atomic.Int64
			cfg.OnCheckpoint = func(*Job, *mcmc.Checkpoint) { took.Add(1) }
			s := faultServer(cfg, tc.failAttempts, nil)
			if tc.panicOn > 0 {
				s.mu.Lock()
				s.beforeRun = func(j *Job) {
					j.mu.Lock()
					attempt := j.attempts
					j.mu.Unlock()
					if attempt == tc.panicOn {
						panic("synthetic workload bug")
					}
				}
				s.mu.Unlock()
			}
			job, err := s.Submit(faultSpec(26))
			if err != nil {
				t.Fatal(err)
			}
			if tc.end != nil {
				tc.end(t, s, job)
			}
			if st := waitDone(t, job, 60*time.Second); st.State != tc.want {
				t.Fatalf("job ended %s (%s), want %s", st.State, st.Error, tc.want)
			}
			if took.Load() == 0 {
				t.Fatal("job took no checkpoint")
			}
			job.mu.Lock()
			ck := job.checkpoint
			job.mu.Unlock()
			if ck != nil {
				t.Fatalf("%s job still holds its iteration-%d checkpoint", tc.want, ck.Iteration)
			}
		})
	}
}

// TestHealthEndpoints: /healthz stays 200 through a drain (liveness);
// /readyz flips to 503 the moment the drain begins (readiness).
func TestHealthEndpoints(t *testing.T) {
	s, c := testAPI(t, Config{Workers: 1, QueueCap: 4})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(c.Base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness must hold)", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", code)
	}
}
