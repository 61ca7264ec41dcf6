package cluster_test

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/fault"
	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/serve"
)

// wireEvent is one upload RPC as the worker's transport saw it.
type wireEvent struct {
	route      string // "checkpoint" or "result"
	job        string // the coordinator's job ID, from the path
	start, end time.Time
}

// uploadWire is a worker transport that sends checkpoint uploads through
// slow (a NetChaos armed with NetDelay) and everything else straight
// through, logging every upload RPC and calling onCheckpointDone as each
// checkpoint round trip ends.
type uploadWire struct {
	slow             http.RoundTripper
	onCheckpointDone func(n int)

	mu     sync.Mutex
	events []wireEvent
	ckpts  int
}

func (u *uploadWire) RoundTrip(r *http.Request) (*http.Response, error) {
	var route string
	next := http.DefaultTransport
	switch {
	case strings.HasSuffix(r.URL.Path, "/checkpoint"):
		route, next = "checkpoint", u.slow
	case strings.HasSuffix(r.URL.Path, "/result"):
		route = "result"
	default:
		return next.RoundTrip(r)
	}
	seg := strings.Split(r.URL.Path, "/") // /cluster/v1/jobs/{id}/{route}
	ev := wireEvent{route: route, job: seg[len(seg)-2], start: time.Now()}
	resp, err := next.RoundTrip(r)
	ev.end = time.Now()
	u.mu.Lock()
	u.events = append(u.events, ev)
	n := 0
	if route == "checkpoint" {
		u.ckpts++
		n = u.ckpts
	}
	u.mu.Unlock()
	if n > 0 && u.onCheckpointDone != nil {
		u.onCheckpointDone(n)
	}
	return resp, err
}

func (u *uploadWire) log() []wireEvent {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]wireEvent(nil), u.events...)
}

// TestCheckpointStreamOverlapsOneInterval: with every checkpoint upload
// delayed on the wire for far longer than an interval takes to sample,
// the sampler must run on through the next interval while the upload is
// out — and then stop at the second boundary until it has landed. Read at
// the instant the first upload's round trip ends, local progress is
// therefore exactly two intervals: past one (overlap), not past two
// (depth one).
func TestCheckpointStreamOverlapsOneInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	const every = 20
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: 10 * time.Second})
	var w atomic.Pointer[cluster.Worker]
	progressAt := make(chan int, 1)
	wire := &uploadWire{slow: fault.NewNetChaos(3).WithDelay(1, 1500*time.Millisecond)}
	wire.onCheckpointDone = func(n int) {
		if n != 1 {
			return
		}
		for _, st := range w.Load().Engine().Jobs() {
			progressAt <- st.Progress
		}
	}
	wk, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "w1", Coordinator: base, Platform: hw.Skylake,
		HeartbeatTimeout: 10 * time.Second, // retry budget and per-try deadline well above the delay
		HTTP:             &http.Client{Transport: wire},
		Engine:           serve.Config{CheckpointEvery: every},
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	w.Store(wk)
	defer stopWorker(t, wk)

	st, err := co.SubmitJob(serve.JobSpec{Workload: "12cities", Scale: 0.25, Seed: 61, Iterations: 3 * every, NoElide: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case got := <-progressAt:
		if got != 2*every {
			t.Fatalf("local progress %d when the first checkpoint upload landed, want %d: the sampler must advance one interval during the upload (>%d) and wait at the second boundary (<=%d)",
				got, 2*every, every, 2*every)
		}
	case <-time.After(time.Minute):
		t.Fatal("no checkpoint upload completed")
	}
	// The delayed stream still carries the job to a clean finish.
	eventually(t, "the job to finish", func() bool {
		cur, err := co.GetJob(st.ID)
		return err == nil && cur.State.Terminal()
	})
	if cur, _ := co.GetJob(st.ID); cur.State != serve.Done {
		t.Fatalf("job ended %s (%s)", cur.State, cur.Error)
	}
}

// TestCheckpointStreamLagAtMostOneBoundary: a worker killed inside
// iteration index 60 — sixty iterations complete, the boundary-60
// snapshot just handed to its uploader — with a checkpoint every 20 and
// its uploads delayed, leaves the coordinator holding boundary 60 if that
// last upload still landed and boundary 40 if it did not: never further
// back than the boundary before the last one the sampler passed.
func TestCheckpointStreamLagAtMostOneBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	const every, killAt = 20, 60
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Second,
		ReapInterval:     50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wire := &uploadWire{slow: fault.NewNetChaos(7).WithDelay(1, 150*time.Millisecond)}
	inj := fault.New(7).Schedule(0, killAt, fault.WorkerLoss)
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "doomed", Coordinator: base, Platform: hw.Skylake,
		HeartbeatInterval: 40 * time.Millisecond,
		HTTP:              &http.Client{Transport: wire},
		Engine: serve.Config{
			CheckpointEvery: every,
			InjectFaultHook: func(job *serve.Job, attempt int) func(chain, iter int) mcmc.FaultAction {
				return inj.Hook
			},
		},
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	inj.WithWorkerKill(func() { w.Kill() })
	st, err := co.SubmitJob(serve.JobSpec{Workload: "12cities", Scale: 0.25, Seed: 67, Iterations: 160, NoElide: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitForReap(t, ctx, co)
	cur, err := co.GetJob(st.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	// A requeued job's progress is the iteration it will resume from.
	if cur.State != serve.Queued || (cur.Progress != killAt-every && cur.Progress != killAt) {
		t.Fatalf("after the kill at iteration %d the job is %s to resume from %d, want queued from %d or %d",
			killAt, cur.State, cur.Progress, killAt-every, killAt)
	}
}

// TestCheckpointStreamDrainedBeforeResult: the terminal upload waits for
// the attempt's in-flight checkpoint, so on the wire no checkpoint RPC is
// still open — let alone issued — once the result RPC starts. Frequent,
// delayed checkpoints make an upload in flight at the finish the normal
// case rather than a rare one.
func TestCheckpointStreamDrainedBeforeResult(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: 5 * time.Second})
	wire := &uploadWire{slow: fault.NewNetChaos(11).WithDelay(1, 40*time.Millisecond)}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "w1", Coordinator: base, Platform: hw.Skylake, Slots: 2,
		HeartbeatTimeout: 5 * time.Second,
		HTTP:             &http.Client{Transport: wire},
		Engine:           serve.Config{CheckpointEvery: 5},
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	defer stopWorker(t, w)
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		st, err := co.SubmitJob(serve.JobSpec{Workload: "12cities", Scale: 0.25, Seed: seed, Iterations: 60, NoElide: true})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		eventually(t, "job "+id, func() bool {
			cur, err := co.GetJob(id)
			return err == nil && cur.State.Terminal()
		})
	}
	// A job is terminal at the coordinator before its upload's round trip
	// has returned to the wire log.
	eventually(t, "every result RPC to return", func() bool {
		n := 0
		for _, ev := range wire.log() {
			if ev.route == "result" {
				n++
			}
		}
		return n >= len(ids)
	})
	resultStart := map[string]time.Time{}
	for _, ev := range wire.log() {
		if ev.route == "result" {
			if at, ok := resultStart[ev.job]; !ok || ev.start.Before(at) {
				resultStart[ev.job] = ev.start
			}
		}
	}
	checkpoints := 0
	for _, ev := range wire.log() {
		if ev.route != "checkpoint" {
			continue
		}
		checkpoints++
		at, ok := resultStart[ev.job]
		if !ok {
			t.Fatalf("job %s uploaded checkpoints but no result", ev.job)
		}
		if ev.end.After(at) {
			t.Fatalf("job %s: a checkpoint RPC issued %v before the result RPC was still open %v after it",
				ev.job, at.Sub(ev.start), ev.end.Sub(at))
		}
	}
	if len(resultStart) != len(ids) || checkpoints < len(ids) {
		t.Fatalf("saw %d results and %d checkpoints for %d jobs: the run proved nothing", len(resultStart), checkpoints, len(ids))
	}
}
