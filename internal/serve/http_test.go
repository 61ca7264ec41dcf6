package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bayessuite/internal/mathx"
)

func testAPI(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Predictor == nil {
		cfg.Predictor = testPredictor()
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

func apiStatus(t *testing.T, err error) int {
	t.Helper()
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not an APIError", err, err)
	}
	return apiErr.StatusCode
}

// TestHTTPLifecycle walks a job through the full API: submit, live
// status, result, stats.
func TestHTTPLifecycle(t *testing.T) {
	_, c := testAPI(t, Config{Workers: 2, QueueCap: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	names, err := c.Workloads(ctx)
	if err != nil || len(names) == 0 {
		t.Fatalf("workloads: %v (%d names)", err, len(names))
	}

	st, err := c.Submit(ctx, JobSpec{Workload: "12cities", Scale: 0.25, Seed: 7, Iterations: 2000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID == "" || st.Budget != 2000 {
		t.Fatalf("submit response %+v", st)
	}

	final, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != Done || !final.Elided || final.Placement == nil || len(final.RHatTrace) == 0 {
		t.Fatalf("final status %+v, want done+elided with placement and R̂ trace", final)
	}
	if final.SavedIterations <= 0 || final.SavedJoules <= 0 {
		t.Fatalf("elision savings not accounted: %d iters, %g J", final.SavedIterations, final.SavedJoules)
	}

	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(res.Summaries) == 0 || res.MaxRHat <= 0 || res.WorkEvals <= 0 {
		t.Fatalf("result payload %+v", res)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Done != 1 || stats.SavedIterations != final.SavedIterations || len(stats.Platforms) != 2 {
		t.Fatalf("stats %+v", stats)
	}

	// Canceling a finished job is a conflict.
	if _, err := c.Cancel(ctx, st.ID); apiStatus(t, err) != 409 {
		t.Fatalf("cancel finished: %v, want 409", err)
	}
}

// TestHTTPErrors maps the failure modes onto status codes.
func TestHTTPErrors(t *testing.T) {
	s, c := testAPI(t, Config{Workers: 1, QueueCap: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := c.Submit(ctx, JobSpec{Workload: "nope"}); apiStatus(t, err) != 400 {
		t.Fatalf("bad spec: %v, want 400", err)
	}
	// A retired field is an unknown field: the decoder refuses it. The typed
	// client cannot send it, so post the raw body.
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"12cities","scale":0.1,"speculate":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf(`"speculate": true: status %d, want 400`, resp.StatusCode)
	}
	if _, err := c.Status(ctx, "job-424242"); apiStatus(t, err) != 404 {
		t.Fatalf("unknown job: %v, want 404", err)
	}
	if _, err := c.Cancel(ctx, "job-424242"); apiStatus(t, err) != 404 {
		t.Fatalf("cancel unknown: %v, want 404", err)
	}

	// Hold the single worker so the 1-slot queue can fill: result of a
	// non-terminal job is 409, the overflow submission is 429.
	entered := make(chan *Job, 8)
	gate := make(chan struct{})
	s.mu.Lock()
	s.beforeRun = func(j *Job) { entered <- j; <-gate }
	s.mu.Unlock()

	blocked, err := c.Submit(ctx, JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 40, Chains: 2})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-entered
	if _, err := c.Result(ctx, blocked.ID); apiStatus(t, err) != 409 {
		t.Fatalf("early result: %v, want 409", err)
	}
	if _, err := c.Submit(ctx, JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 40, Chains: 2, Seed: 1}); err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}
	_, err = c.Submit(ctx, JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 40, Chains: 2, Seed: 2})
	if apiStatus(t, err) != 429 {
		t.Fatalf("over-capacity submit: %v, want 429", err)
	}
	close(gate)
	if _, err := c.Wait(ctx, blocked.ID, 20*time.Millisecond); err != nil {
		t.Fatalf("wait blocker: %v", err)
	}
}

// TestHTTPReadyzCapabilityNegotiation: a bare probe keeps the legacy
// {"status"} body, while Accept: application/json opts into the full
// capability document the cluster coordinator reads fleet facts from.
func TestHTTPReadyzCapabilityNegotiation(t *testing.T) {
	s := NewServer(Config{Workers: 3, QueueCap: 8, Node: "probe-node", Predictor: testPredictor()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	get := func(accept string) (int, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/readyz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decoding readyz body: %v", err)
		}
		return resp.StatusCode, body
	}

	code, bare := get("")
	if code != http.StatusOK {
		t.Fatalf("bare readyz = %d, want 200", code)
	}
	if bare["status"] != "ready" || len(bare) != 1 {
		t.Fatalf("bare readyz body %v, want exactly {\"status\": \"ready\"}", bare)
	}
	if _, wildcard := get("*/*"); len(wildcard) != 1 {
		t.Fatalf("Accept: */* body %v, want the legacy bare form", wildcard)
	}

	code, full := get("application/json; q=0.9, text/plain")
	if code != http.StatusOK {
		t.Fatalf("capability readyz = %d, want 200", code)
	}
	if full["node"] != "probe-node" || full["role"] != "node" {
		t.Fatalf("capability identity %v/%v, want probe-node/node", full["node"], full["role"])
	}
	if full["slots"] != float64(3) || full["llc_bytes"] == float64(0) || full["frequency_ghz"] == float64(0) {
		t.Fatalf("capability hardware facts %v, want 3 slots and non-zero LLC/frequency", full)
	}
	if full["grad_batch"] != true {
		t.Fatalf("capability grad_batch %v, want true", full["grad_batch"])
	}
	if full["kernel_isa"] != mathx.VectorISA() {
		t.Fatalf("capability kernel_isa %v, want %q", full["kernel_isa"], mathx.VectorISA())
	}

	// Draining flips both forms to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, body := get(""); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("bare readyz after drain = %d %v, want 503 draining", code, body)
	}
	if code, body := get("application/json"); code != http.StatusServiceUnavailable || body["draining"] != true {
		t.Fatalf("capability readyz after drain = %d %v, want 503 with draining:true", code, body)
	}
}

// TestHTTPStatsNodeLabel: single-process stats carry the node label so
// they compose into the coordinator's per-worker fleet sections.
func TestHTTPStatsNodeLabel(t *testing.T) {
	_, c := testAPI(t, Config{Workers: 1, QueueCap: 4, Node: "solo"})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Node != "solo" {
		t.Fatalf("stats node %q, want solo", stats.Node)
	}
}

// TestHTTPCancelRunning cancels a long job over the API and reads back
// the partial result.
func TestHTTPCancelRunning(t *testing.T) {
	_, c := testAPI(t, Config{Workers: 1, QueueCap: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 1 << 20, Chains: 2, NoElide: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := c.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == Running && cur.Progress > 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Canceled || !final.Interrupted {
		t.Fatalf("final %+v, want canceled+interrupted", final)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("partial result: %v", err)
	}
	if !res.Partial || res.Iterations == 0 {
		t.Fatalf("partial payload %+v, want retained draws", res)
	}
}
