package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/serve"
)

// apiSide is one implementation of serve.API behind serve.NewAPIHandler,
// as the conformance test drives it: a node (serve.Server) or a fleet (a
// cluster.Coordinator with one in-process worker). Each holds every run
// it starts in its fault hook until the test releases it.
type apiSide struct {
	name    string
	prefix  string // job ID prefix
	base    string
	entered chan string
	release chan struct{}
	drain   func(context.Context) error
	drained chan error // the drain's answer, once the test started one
	// cancelReached blocks until a cancel recorded for job id has reached
	// the run that job is held in.
	cancelReached func(t *testing.T, id string)
}

// hook is the InjectFaultHook both sides run: it announces a run and
// holds it until the test releases it, injecting no fault.
func (sd *apiSide) hook(job *serve.Job, attempt int) func(chain, iter int) mcmc.FaultAction {
	sd.entered <- job.ID()
	<-sd.release
	return nil
}

func newAPISide(name, prefix string) *apiSide {
	return &apiSide{name: name, prefix: prefix, entered: make(chan string, 8),
		release: make(chan struct{}), drained: make(chan error, 1)}
}

// letGoOnCleanup releases every held run when the test ends. Registered
// after the servers' own clean-ups, it runs before them: a drain waits
// for the runs it holds.
func (sd *apiSide) letGoOnCleanup(t *testing.T) {
	t.Cleanup(func() { close(sd.release) })
}

func nodeSide(t *testing.T) *apiSide {
	sd := newAPISide("node", "job-")
	s := serve.NewServer(serve.Config{QueueCap: 1, Workers: 1, InjectFaultHook: sd.hook})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	sd.base, sd.drain = hs.URL, s.Shutdown
	sd.cancelReached = func(*testing.T, string) {} // Cancel reaches the run before it returns
	sd.letGoOnCleanup(t)
	return sd
}

func fleetSide(t *testing.T) *apiSide {
	sd := newAPISide("fleet", "cjob-")
	tap := &heartbeatTap{cancels: make(map[string]int)}
	co, base := startTestCoordinatorBehind(t, cluster.CoordinatorConfig{QueueCap: 1}, tap.wrap)
	w := startTestWorker(t, base, "conform-1", hw.Skylake, serve.Config{InjectFaultHook: sd.hook})
	t.Cleanup(func() { stopWorker(t, w) })
	waitForWorkers(t, co, 1)
	sd.base, sd.drain = base, co.Shutdown
	sd.cancelReached = func(t *testing.T, id string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !tap.reached(id) {
			if time.Now().After(deadline) {
				t.Fatalf("fleet: the cancel of %s never reached its worker", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	sd.letGoOnCleanup(t)
	return sd
}

// heartbeatTap sits in front of the coordinator's handler and notes, per
// job, the heartbeat whose answer first told the worker to cancel it. A
// worker applies one answer's cancels before it sends its next heartbeat,
// so any later heartbeat proves the cancel has reached the run.
type heartbeatTap struct {
	mu      sync.Mutex
	beats   int
	cancels map[string]int
}

func (tp *heartbeatTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/v1/heartbeat" {
			h.ServeHTTP(w, r)
			return
		}
		tp.mu.Lock()
		tp.beats++
		beat := tp.beats
		tp.mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp cluster.HeartbeatResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &resp)
		tp.mu.Lock()
		for _, id := range resp.Cancel {
			if _, seen := tp.cancels[id]; !seen {
				tp.cancels[id] = beat
			}
		}
		tp.mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

func (tp *heartbeatTap) reached(id string) bool {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	beat, ok := tp.cancels[id]
	return ok && tp.beats > beat
}

// call makes one request and returns its status code and body.
func (sd *apiSide) call(t *testing.T, method, path string, body any, accept string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, sd.base+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %s %s: %v", sd.name, method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// status makes a request answered by a JobStatus (or an error body).
func (sd *apiSide) status(t *testing.T, method, path string, body any) (int, serve.JobStatus) {
	t.Helper()
	code, raw := sd.call(t, method, path, body, "")
	var st serve.JobStatus
	_ = json.Unmarshal(raw, &st)
	return code, st
}

// result fetches a job's result payload with the side-specific ID
// blanked, so the two sides' payloads compare.
func (sd *apiSide) result(t *testing.T, id string) (int, serve.ResultPayload) {
	t.Helper()
	code, raw := sd.call(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil, "")
	var p serve.ResultPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatalf("%s: result of %s: %v (%s)", sd.name, id, err, raw)
	}
	p.ID = ""
	return code, p
}

// queueDepths reads the queue depth /v1/stats reports and the one the
// /readyz capability document reports.
func (sd *apiSide) queueDepths(t *testing.T) (stats, readyz int) {
	t.Helper()
	var doc struct {
		QueueDepth int `json:"queue_depth"`
	}
	_, raw := sd.call(t, http.MethodGet, "/v1/stats", nil, "")
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	stats = doc.QueueDepth
	_, raw = sd.call(t, http.MethodGet, "/readyz", nil, "application/json")
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return stats, doc.QueueDepth
}

// awaitRun waits for the side to hold a run in its fault hook.
func (sd *apiSide) awaitRun(t *testing.T) {
	t.Helper()
	select {
	case <-sd.entered:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: no run started", sd.name)
	}
}

// awaitEnd polls a job until it is terminal.
func (sd *apiSide) awaitEnd(t *testing.T, id string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, st := sd.status(t, http.MethodGet, "/v1/jobs/"+id, nil)
		if code == http.StatusOK && st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: job %s stuck in %s", sd.name, id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// conformSpec is a job that samples in milliseconds once released.
func conformSpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{Workload: "12cities", Scale: 0.1, Iterations: 40, Chains: 2, Seed: seed}
}

// TestAPIConformanceNodeAndFleet runs one job history through the bayesd
// API against a node and against a fleet, step by step, and holds the
// two to the same HTTP codes, states and result payloads. Where the two
// differ by design, the step says so by name: a node's IDs are job-, a
// fleet's cjob-; a node drain lets running jobs finish, while a
// coordinator drain cancels them. After every step, the queue depth
// /v1/stats reports equals the one /readyz reports.
func TestAPIConformanceNodeAndFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet; skipping in -short")
	}
	sides := []*apiSide{nodeSide(t), fleetSide(t)}
	ids := make([]map[string]string, len(sides)) // per side: history name → job ID
	for i := range ids {
		ids[i] = make(map[string]string)
	}

	// obs is what one step saw on one side; a step passes when both sides
	// saw the same, and that is what it wants.
	type obs struct {
		Code    int
		State   serve.JobState
		Payload *serve.ResultPayload `json:",omitempty"`
	}
	submit := func(t *testing.T, sd *apiSide, ids map[string]string, name string, seed uint64) obs {
		code, st := sd.status(t, http.MethodPost, "/v1/jobs", conformSpec(seed))
		if code == http.StatusAccepted {
			if !strings.HasPrefix(st.ID, sd.prefix) {
				t.Errorf("%s: job ID %q, want prefix %q", sd.name, st.ID, sd.prefix)
			}
			ids[name] = st.ID
		}
		return obs{Code: code, State: st.State}
	}
	cancel := func(t *testing.T, sd *apiSide, ids map[string]string, name string) obs {
		code, st := sd.status(t, http.MethodDelete, "/v1/jobs/"+ids[name], nil)
		return obs{Code: code, State: st.State}
	}
	result := func(t *testing.T, sd *apiSide, ids map[string]string, name string) obs {
		code, p := sd.result(t, ids[name])
		return obs{Code: code, State: p.State, Payload: &p}
	}

	steps := []struct {
		name string
		do   func(t *testing.T, sd *apiSide, ids map[string]string) obs
		want obs
		// fleetWant, when set, is what the fleet must see instead of want.
		fleetWant *obs
	}{
		{name: "submit a, held running", want: obs{Code: 200, State: serve.Running},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs {
				if o := submit(t, sd, ids, "a", 1); o.Code != http.StatusAccepted {
					return o
				}
				sd.awaitRun(t)
				code, st := sd.status(t, http.MethodGet, "/v1/jobs/"+ids["a"], nil)
				return obs{Code: code, State: st.State}
			}},
		{name: "submit b, queued", want: obs{Code: 202, State: serve.Queued},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs { return submit(t, sd, ids, "b", 2) }},
		{name: "submit at capacity", want: obs{Code: 429},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs { return submit(t, sd, ids, "c", 3) }},
		{name: "unknown ID", want: obs{Code: 404},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs {
				code, _ := sd.status(t, http.MethodGet, "/v1/jobs/"+sd.prefix+"999999", nil)
				return obs{Code: code}
			}},
		{name: "queued cancel", want: obs{Code: 202, State: serve.Canceled},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs { return cancel(t, sd, ids, "b") }},
		{name: "queued cancel's result",
			want: obs{Code: 200, State: serve.Canceled, Payload: &serve.ResultPayload{State: serve.Canceled, Partial: true, Budget: 40}},
			do:   func(t *testing.T, sd *apiSide, ids map[string]string) obs { return result(t, sd, ids, "b") }},
		{name: "second cancel", want: obs{Code: 409},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs {
				code, _ := sd.status(t, http.MethodDelete, "/v1/jobs/"+ids["b"], nil)
				return obs{Code: code}
			}},
		{name: "submit into the freed slot", want: obs{Code: 202, State: serve.Queued},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs { return submit(t, sd, ids, "c", 3) }},
		{name: "running cancel", want: obs{Code: 202, State: serve.Running},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs { return cancel(t, sd, ids, "a") }},
		{name: "running cancel ends canceled", want: obs{Code: 200, State: serve.Canceled},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs {
				sd.cancelReached(t, ids["a"])
				sd.release <- struct{}{}
				st := sd.awaitEnd(t, ids["a"])
				sd.awaitRun(t) // c takes the freed worker
				return obs{Code: 200, State: st.State}
			}},
		{name: "running cancel's partial result", want: obs{Code: 200, State: serve.Canceled},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs {
				o := result(t, sd, ids, "a")
				if !o.Payload.Partial {
					t.Errorf("%s: canceled run's result is not partial: %+v", sd.name, o.Payload)
				}
				return o
			}},
		{name: "submit during a drain", want: obs{Code: 503},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs {
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
					defer cancel()
					sd.drained <- sd.drain(ctx)
				}()
				deadline := time.Now().Add(10 * time.Second)
				for {
					if code, _ := sd.call(t, http.MethodGet, "/readyz", nil, ""); code == http.StatusServiceUnavailable {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s: /readyz never reported the drain", sd.name)
					}
					time.Sleep(2 * time.Millisecond)
				}
				return submit(t, sd, ids, "d", 4)
			}},
		{name: "drain: a node finishes running jobs, a coordinator cancels them",
			want: obs{Code: 200, State: serve.Done}, fleetWant: &obs{Code: 200, State: serve.Canceled},
			do: func(t *testing.T, sd *apiSide, ids map[string]string) obs {
				if sd.name == "fleet" {
					sd.cancelReached(t, ids["c"])
				}
				sd.release <- struct{}{}
				if err := <-sd.drained; err != nil {
					t.Fatalf("%s: drain: %v", sd.name, err)
				}
				code, st := sd.status(t, http.MethodGet, "/v1/jobs/"+ids["c"], nil)
				return obs{Code: code, State: st.State}
			}},
	}

	for _, step := range steps {
		seen := make([]obs, len(sides))
		for i, sd := range sides {
			seen[i] = step.do(t, sd, ids[i])
			if stats, readyz := sd.queueDepths(t); stats != readyz {
				t.Errorf("%s: after %q: /v1/stats queue_depth %d, /readyz queue_depth %d", sd.name, step.name, stats, readyz)
			}
		}
		node, fleet := seen[0], seen[1]
		if step.fleetWant != nil {
			if !reflect.DeepEqual(node, step.want) || !reflect.DeepEqual(fleet, *step.fleetWant) {
				t.Fatalf("%q: node %s, fleet %s; want node %s, fleet %s",
					step.name, asJSON(t, node), asJSON(t, fleet), asJSON(t, step.want), asJSON(t, *step.fleetWant))
			}
			continue
		}
		if !reflect.DeepEqual(node, fleet) {
			t.Fatalf("%q: node %s, fleet %s; want the same", step.name, asJSON(t, node), asJSON(t, fleet))
		}
		want := step.want
		if want.Payload == nil {
			node.Payload = nil // compared across the sides above; the step checks no value
		}
		if !reflect.DeepEqual(node, want) {
			t.Fatalf("%q: both sides saw %s, want %s", step.name, asJSON(t, node), asJSON(t, want))
		}
	}
}
