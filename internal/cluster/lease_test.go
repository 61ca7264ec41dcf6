package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/fault"
	"bayessuite/internal/hw"
	"bayessuite/internal/serve"
)

// capabilityFor is the capability document a one-slot worker of plat
// would send.
func capabilityFor(name string, plat hw.Platform) serve.Capability {
	return serve.Capability{
		Node: name, Role: "worker", Status: "ready", State: "ready",
		Platform: plat.Codename, LLCBytes: plat.LLCBytes, FrequencyGHz: plat.TurboGHz,
		Cores: plat.Cores, Slots: 1,
	}
}

// leaseAnswer is what one raw lease request came back with.
type leaseAnswer struct {
	resp cluster.LeaseResponse
	at   time.Time
	err  error
}

// askLease posts one raw lease request — no worker, no loop, no tick — and
// delivers the answer on the returned channel.
func askLease(ctx context.Context, client *http.Client, base, worker string, plat hw.Platform, wait time.Duration) <-chan leaseAnswer {
	out := make(chan leaseAnswer, 1)
	body, _ := json.Marshal(cluster.LeaseRequest{
		Worker: worker, Capability: capabilityFor(worker, plat), WaitMS: wait.Milliseconds(),
	})
	go func() {
		var a leaseAnswer
		defer func() { a.at = time.Now(); out <- a }()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/cluster/v1/lease", bytes.NewReader(body))
		if err != nil {
			a.err = err
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			a.err = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			a.err = fmt.Errorf("lease: HTTP %d", resp.StatusCode)
			return
		}
		a.err = json.NewDecoder(resp.Body).Decode(&a.resp)
	}()
	return out
}

// leaseGate wraps a coordinator handler, counting lease requests as they
// arrive and as their handler returns.
type leaseGate struct {
	next          http.Handler
	arrived, left atomic.Int64
}

func (g *leaseGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/cluster/v1/lease" {
		g.next.ServeHTTP(w, r)
		return
	}
	g.arrived.Add(1)
	defer g.left.Add(1)
	g.next.ServeHTTP(w, r)
}

// startGatedCoordinator is startTestCoordinator with a leaseGate in front.
func startGatedCoordinator(t *testing.T, cfg cluster.CoordinatorConfig) (*cluster.Coordinator, *leaseGate, string) {
	t.Helper()
	g := &leaseGate{}
	co, base := startTestCoordinatorBehind(t, cfg, func(h http.Handler) http.Handler {
		g.next = h
		return g
	})
	return co, g, base
}

// eventually spins on cond (an event some other goroutine is about to
// produce) with a generous bound.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// dismissAtCleanup says goodbye for workers that exist only as raw
// requests, so the jobs "running" on them requeue and the coordinator's
// Shutdown does not wait out a reap for them.
func dismissAtCleanup(t *testing.T, co *cluster.Coordinator, workers ...string) {
	t.Cleanup(func() {
		for _, name := range workers {
			_, _ = co.Heartbeat(cluster.HeartbeatRequest{Worker: name, Leaving: true})
		}
	})
}

func smallSpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{Workload: "12cities", Scale: 0.25, Seed: seed, Iterations: 100, NoElide: true}
}

// TestLeaseParkedGrantedOnSubmit: one raw lease request parked on an empty
// queue, nothing else alive. A job admitted afterwards must come back on
// that same request — there is no tick anywhere that could deliver it
// otherwise — and promptly.
func TestLeaseParkedGrantedOnSubmit(t *testing.T) {
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The wake-to-answer latency is microseconds of work; a loaded box
	// can still deschedule it, so the latency bound takes the best of a
	// few rounds while the grant itself is required on every one.
	best := time.Hour
	for round := 0; round < 5; round++ {
		name := fmt.Sprintf("w%d", round)
		dismissAtCleanup(t, co, name)
		ans := askLease(ctx, http.DefaultClient, base, name, hw.Skylake, 5*time.Second)
		// Registered means evaluated (the change signal is taken before
		// touchWorker): from here a submit cannot be missed.
		eventually(t, "the parked worker to register", func() bool {
			for _, c := range co.Workers() {
				if c.Node == name {
					return true
				}
			}
			return false
		})
		st, err := co.SubmitJob(smallSpec(uint64(round)))
		submitted := time.Now()
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		a := <-ans
		if a.err != nil {
			t.Fatalf("parked lease: %v", a.err)
		}
		if a.resp.Lease == nil || a.resp.Lease.JobID != st.ID {
			t.Fatalf("parked lease answered %+v, want a grant of %s", a.resp.Lease, st.ID)
		}
		if d := a.at.Sub(submitted); d < best {
			best = d
		}
	}
	if best >= 10*time.Millisecond {
		t.Fatalf("fastest parked grant arrived %v after SubmitJob returned, want < 10ms", best)
	}
}

// TestLeasePlacementAuthoritative: parking must not let pull order beat
// placement. With Broadwell parked and Skylake free, small jobs stay
// queued for Skylake; when Skylake takes the first, that grant — not a
// new request — hands the second to the parked Broadwell.
func TestLeasePlacementAuthoritative(t *testing.T) {
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	dismissAtCleanup(t, co, "skylake-1", "broadwell-1")
	// Skylake is in the fleet with a free slot but is not asking.
	sky := capabilityFor("skylake-1", hw.Skylake)
	if _, err := co.Heartbeat(cluster.HeartbeatRequest{Worker: "skylake-1", Capability: sky}); err != nil {
		t.Fatalf("skylake heartbeat: %v", err)
	}
	parked := askLease(ctx, http.DefaultClient, base, "broadwell-1", hw.Broadwell, 5*time.Second)
	eventually(t, "broadwell to register", func() bool { return len(co.Workers()) == 2 })

	a, err := co.SubmitJob(smallSpec(1))
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := co.SubmitJob(smallSpec(2))
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	// Both submits woke Broadwell's request; had either evaluation ignored
	// placement, job a would be gone by now and Skylake would get b.
	got, err := co.Lease(cluster.LeaseRequest{Worker: "skylake-1", Capability: sky})
	if err != nil {
		t.Fatalf("skylake lease: %v", err)
	}
	if got.Lease == nil || got.Lease.JobID != a.ID {
		t.Fatalf("skylake was granted %+v, want %s (the parked Broadwell must not have taken it)", got.Lease, a.ID)
	}
	ans := <-parked
	if ans.err != nil {
		t.Fatalf("parked broadwell lease: %v", ans.err)
	}
	if ans.resp.Lease == nil || ans.resp.Lease.JobID != b.ID {
		t.Fatalf("parked broadwell answered %+v, want a grant of %s on Skylake's grant event", ans.resp.Lease, b.ID)
	}
	for id, node := range map[string]string{a.ID: "skylake-1", b.ID: "broadwell-1"} {
		st, err := co.GetJob(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.Placement == nil || st.Placement.Node != node {
			t.Fatalf("job %s placed %+v, want node %s", id, st.Placement, node)
		}
	}
}

// TestLeaseHoldExpiryAnswersEmpty: a request parked on an idle fleet comes
// back empty when its hold runs out — not before, and not much after.
func TestLeaseHoldExpiryAnswersEmpty(t *testing.T) {
	_, base := startTestCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const hold = 150 * time.Millisecond
	start := time.Now()
	a := <-askLease(ctx, http.DefaultClient, base, "w1", hw.Skylake, hold)
	if a.err != nil {
		t.Fatalf("lease: %v", a.err)
	}
	if a.resp.Lease != nil {
		t.Fatalf("idle fleet granted %+v", a.resp.Lease)
	}
	if d := a.at.Sub(start); d < hold || d > hold+2*time.Second {
		t.Fatalf("empty answer after %v, want the %v hold", d, hold)
	}
	// Without wait_ms the same request is answered at once.
	start = time.Now()
	a = <-askLease(ctx, http.DefaultClient, base, "w1", hw.Skylake, 0)
	if a.err != nil || a.resp.Lease != nil {
		t.Fatalf("unparked lease: %+v, %v", a.resp.Lease, a.err)
	}
	if d := a.at.Sub(start); d >= hold {
		t.Fatalf("lease without wait_ms took %v: it was held", d)
	}
}

// TestLeaseDuplicateDeliveryGrantsOnce: the chaos transport delivers one
// lease request twice. A one-slot worker must end up with one job, not
// two: the second delivery finds the slot taken and parks out its hold.
func TestLeaseDuplicateDeliveryGrantsOnce(t *testing.T) {
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for seed := uint64(1); seed <= 2; seed++ {
		if _, err := co.SubmitJob(smallSpec(seed)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	dismissAtCleanup(t, co, "w1")
	chaos := fault.NewNetChaos(5).WithDup(1)
	a := <-askLease(ctx, &http.Client{Transport: chaos}, base, "w1", hw.Skylake, 100*time.Millisecond)
	if a.err != nil {
		t.Fatalf("lease: %v", a.err)
	}
	if chaos.Fired(fault.NetDup) != 1 {
		t.Fatalf("dup fired %d times, want 1", chaos.Fired(fault.NetDup))
	}
	// The caller sees the second delivery's answer: the first one's grant
	// was discarded on the wire, and there is no second grant behind it.
	if a.resp.Lease != nil {
		t.Fatalf("second delivery was granted %s: two grants for one slot", a.resp.Lease.JobID)
	}
	fs := co.ServiceStats().(cluster.FleetStats)
	if fs.Running != 1 || fs.Queued != 1 {
		t.Fatalf("%d running, %d queued after a duplicated lease, want 1 and 1", fs.Running, fs.Queued)
	}
	if n := len(fs.PerWorker[0].AssignedJobs); n != 1 {
		t.Fatalf("worker holds %d jobs, want 1", n)
	}
}

// TestLeaseCanceledRequestNotGranted: a parked request whose caller gave
// up is released at once and never granted a job. The window that cannot
// be closed — the grant was already on its way — is what the
// orphaned-lease scan covers: a grant the worker never reports is
// requeued after the liveness bound, and that requeue is itself an event
// a parked request elsewhere is granted on.
func TestLeaseCanceledRequestNotGranted(t *testing.T) {
	const hbt = 300 * time.Millisecond
	co, gate, base := startGatedCoordinator(t, cluster.CoordinatorConfig{
		HeartbeatTimeout: hbt,
		ReapInterval:     time.Hour, // the scan under test is the heartbeat's, not the reaper's
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	dismissAtCleanup(t, co, "quitter", "rescue")
	// Broadwell quits, Skylake rescues: the requeued small job must prefer
	// the rescuer over the quitter, which stays registered (and free, once
	// the orphan is taken off it) until the reaper gets to it.
	reqCtx, giveUp := context.WithCancel(ctx)
	parked := askLease(reqCtx, http.DefaultClient, base, "quitter", hw.Broadwell, hbt)
	eventually(t, "the request to park", func() bool { return len(co.Workers()) == 1 })
	giveUp()
	if a := <-parked; a.err == nil {
		t.Fatalf("canceled lease request answered %+v", a.resp)
	}
	eventually(t, "the coordinator to release the request", func() bool { return gate.left.Load() == 1 })
	st, err := co.SubmitJob(smallSpec(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if cur, _ := co.GetJob(st.ID); cur.State != serve.Queued {
		t.Fatalf("job is %s with no request outstanding, want queued", cur.State)
	}

	// The unavoidable window: the grant happens, the worker never hears.
	quitter := capabilityFor("quitter", hw.Broadwell)
	lost, err := co.Lease(cluster.LeaseRequest{Worker: "quitter", Capability: quitter})
	if err != nil || lost.Lease == nil {
		t.Fatalf("direct lease: %+v, %v", lost.Lease, err)
	}
	time.Sleep(hbt + 20*time.Millisecond) // the scan's own bound: a lease unreported for HeartbeatTimeout
	rescue := askLease(ctx, http.DefaultClient, base, "rescue", hw.Skylake, hbt)
	eventually(t, "the rescuer to park", func() bool { return len(co.Workers()) == 2 })
	// A beat that does not list the job.
	if _, err := co.Heartbeat(cluster.HeartbeatRequest{Worker: "quitter", Capability: quitter}); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	a := <-rescue
	if a.err != nil {
		t.Fatalf("rescue lease: %v", a.err)
	}
	if a.resp.Lease == nil || a.resp.Lease.JobID != st.ID || a.resp.Lease.Attempt != 2 {
		t.Fatalf("rescue answered %+v, want attempt 2 of %s on the requeue event", a.resp.Lease, st.ID)
	}
	if fs := co.ServiceStats().(cluster.FleetStats); fs.Migrations != 1 {
		t.Fatalf("%d migrations, want 1 (the orphaned lease)", fs.Migrations)
	}
}

// TestLeaseImmediateEmptyFallsBackToInterval: a coordinator that answers
// empty without holding the request (here: draining) must be asked again
// at LeaseInterval cadence, not in a spin.
func TestLeaseImmediateEmptyFallsBackToInterval(t *testing.T) {
	co, gate, base := startGatedCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: 2 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := co.Shutdown(ctx); err != nil {
		t.Fatalf("draining the coordinator: %v", err)
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "w1", Coordinator: base, LeaseInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	eventually(t, "the first lease request", func() bool { return gate.arrived.Load() >= 1 })
	first := gate.arrived.Load()
	time.Sleep(300 * time.Millisecond)
	n := gate.arrived.Load() - first
	stopWorker(t, w)
	// 300ms at one request per 50ms plus its round trip: six at most.
	if n < 2 || n > 7 {
		t.Fatalf("%d lease requests in 300ms against a draining coordinator, want about 300ms/LeaseInterval = 6", n)
	}
}

// TestLeaseTeardownReleasesParked: a stopped worker takes its parked
// request with it and leaves the fleet for good; a killed worker's and a
// shut-down or Killed coordinator's parked requests are released at once
// — an http.Server's Close waits for open requests, so anything less
// would hang every teardown for a hold.
func TestLeaseTeardownReleasesParked(t *testing.T) {
	const hbt = 20 * time.Second // a hold (hbt/2) no test run could sit out
	for _, how := range []string{"worker-stop", "worker-kill", "coordinator-shutdown", "coordinator-kill"} {
		t.Run(how, func(t *testing.T) {
			co, gate, base := startGatedCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: hbt})
			w, err := cluster.NewWorker(cluster.WorkerConfig{Name: "w1", Coordinator: base, HeartbeatTimeout: hbt})
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
			eventually(t, "the worker's request to park", func() bool {
				return gate.arrived.Load() == 1 && len(co.Workers()) == 1
			})
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			switch how {
			case "worker-stop":
				stopWorker(t, w)
				if n := len(co.Workers()); n != 0 {
					t.Fatalf("%d workers registered after the goodbye, want 0", n)
				}
			case "worker-kill":
				w.Kill()
			case "coordinator-shutdown":
				if err := co.Shutdown(ctx); err != nil {
					t.Fatalf("shutdown: %v", err)
				}
			case "coordinator-kill":
				co.Kill()
			}
			eventually(t, "the parked request to be released", func() bool { return gate.left.Load() >= 1 })
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("parked request released after %v", d)
			}
			if strings.HasPrefix(how, "coordinator") {
				stopWorker(t, w)
			}
		})
	}
}

// TestLeaseAfterGoodbyeDoesNotReregister: a lease request of a worker that
// has said goodbye — parked, duplicated or overtaken on the wire — must
// not bring the name back into the fleet; the first heartbeat of a new
// process under that name does.
func TestLeaseAfterGoodbyeDoesNotReregister(t *testing.T) {
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{HeartbeatTimeout: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dismissAtCleanup(t, co, "w1")
	w1 := capabilityFor("w1", hw.Skylake)
	if _, err := co.Heartbeat(cluster.HeartbeatRequest{Worker: "w1", Capability: w1}); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if _, err := co.Heartbeat(cluster.HeartbeatRequest{Worker: "w1", Capability: w1, Leaving: true}); err != nil {
		t.Fatalf("goodbye: %v", err)
	}
	if _, err := co.SubmitJob(smallSpec(1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	a := <-askLease(ctx, http.DefaultClient, base, "w1", hw.Skylake, 50*time.Millisecond)
	if a.err != nil || a.resp.Lease != nil {
		t.Fatalf("lease after goodbye: %+v, %v; want empty", a.resp.Lease, a.err)
	}
	if n := len(co.Workers()); n != 0 {
		t.Fatalf("%d workers registered after a post-goodbye lease, want 0", n)
	}
	if _, err := co.Heartbeat(cluster.HeartbeatRequest{Worker: "w1", Capability: w1}); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	a = <-askLease(ctx, http.DefaultClient, base, "w1", hw.Skylake, 0)
	if a.err != nil || a.resp.Lease == nil {
		t.Fatalf("lease after the name came back: %+v, %v; want a grant", a.resp.Lease, a.err)
	}
}

// TestWorkerConnectionsBoundedByConcurrency: the default client's own
// transport keeps every connection a worker uses concurrently — parked
// lease, heartbeat, checkpoint and result uploads — so ten jobs' worth of
// RPCs dial a handful of connections, not one per burst. Dials are
// counted where they land, as connections the coordinator's server
// accepts; nothing but the worker talks HTTP to it.
func TestWorkerConnectionsBoundedByConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	const slots, jobs = 2, 10
	co := cluster.NewCoordinator(cluster.CoordinatorConfig{HeartbeatTimeout: 2 * time.Second})
	var dials, rpcs atomic.Int64
	handler := co.Handler()
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rpcs.Add(1)
		handler.ServeHTTP(w, r)
	}))
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
		hs.Close()
	})
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "w1", Coordinator: hs.URL, Slots: slots,
		HeartbeatInterval: 20 * time.Millisecond,
		Engine:            serve.Config{CheckpointEvery: 10},
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		st, err := co.SubmitJob(smallSpec(uint64(i + 1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			deadline := time.Now().Add(2 * time.Minute)
			for time.Now().Before(deadline) {
				if cur, err := co.GetJob(id); err == nil && cur.State.Terminal() {
					if cur.State != serve.Done {
						t.Errorf("job %s ended %s (%s)", id, cur.State, cur.Error)
					}
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Errorf("job %s never finished", id)
		}(st.ID)
	}
	wg.Wait()
	stopWorker(t, w)
	// Ten jobs at ten checkpoints each, plus leases, results and beats.
	if n := rpcs.Load(); n < 10*jobs {
		t.Fatalf("only %d RPCs: the run proved nothing", n)
	}
	// One parked lease, one heartbeat, and a checkpoint or result upload
	// per slot with the next one's connection already open: slots+3, the
	// transport's idle pool. A few more is scheduling, dozens is churn.
	if n := dials.Load(); n > 2*(slots+3) {
		t.Fatalf("%d connections dialed for %d RPCs, want at most a few more than slots+3 = %d", n, rpcs.Load(), slots+3)
	}
	t.Logf("%d RPCs over %d connections", rpcs.Load(), dials.Load())
}
