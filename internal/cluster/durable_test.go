package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/hw"
	"bayessuite/internal/journal"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/serve"
)

// listenOn binds addr, retrying briefly: re-binding the port a just-
// closed coordinator held can transiently fail.
func listenOn(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-binding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// capabilityOf fetches the coordinator's capability document over HTTP.
func capabilityOf(t *testing.T, base string) serve.Capability {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/readyz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var c serve.Capability
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatalf("decoding capability: %v", err)
	}
	return c
}

// TestClusterFaultCoordinatorCrashRestart is the tentpole acceptance
// scenario, in-process and race-detectable: a durable coordinator is
// killed mid-run (no drain, no goodbye — Kill models SIGKILL at the
// application layer), a new coordinator on the same state directory and
// address replays the journal, requeues the unfinished job from its
// newest fingerprint-verified checkpoint, and the worker — which rode
// out the outage on its retry wire — finishes it with draws
// bit-identical to an uninterrupted run, under the original job ID.
func TestClusterFaultCoordinatorCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	for _, tc := range []struct {
		name string
		spec serve.JobSpec
	}{
		{"batched", serve.JobSpec{Workload: "12cities", Scale: 0.25, Seed: 41, Iterations: 200, NoElide: true}},
		// A collapsed kernel across a durable restart. Its gradient is a
		// few microseconds whatever the data size, so the budget is what
		// keeps the run alive until the kill.
		{"collapsed", serve.JobSpec{Workload: "survival", Scale: 0.25, Seed: 41, Iterations: 2000, NoElide: true}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { crashRestart(t, tc.spec) })
	}
}

func crashRestart(t *testing.T, spec serve.JobSpec) {
	const checkpointEvery = 20
	want := referenceDraws(t, spec, checkpointEvery)
	stateDir := t.TempDir()

	ln := listenOn(t, "127.0.0.1:0")
	addr := ln.Addr().String()
	base := "http://" + addr

	co1 := cluster.NewCoordinator(cluster.CoordinatorConfig{
		StateDir:         stateDir,
		HeartbeatTimeout: time.Second,
		ReapInterval:     50 * time.Millisecond,
	})
	hs1 := &http.Server{Handler: co1.Handler()}
	go hs1.Serve(ln)

	// The worker outlives the coordinator crash; its HeartbeatTimeout
	// keeps every RPC against the dead coordinator bounded.
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:              "survivor",
		Coordinator:       base,
		Platform:          hw.Skylake,
		HeartbeatInterval: 40 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		Engine:            serve.Config{CheckpointEvery: checkpointEvery},
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	defer stopWorker(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	client := serve.NewClient(base)
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Let the run get past two checkpoint boundaries so the kill lands
	// mid-run with real resume state journaled.
	for {
		cur, err := client.Status(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if cur.Progress >= 2*checkpointEvery || cur.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for checkpoint progress before the kill")
		case <-time.After(5 * time.Millisecond):
		}
	}

	hs1.Close() // connections die mid-flight, like a process exit
	co1.Kill()

	ln2 := listenOn(t, addr)
	co2 := cluster.NewCoordinator(cluster.CoordinatorConfig{
		StateDir:         stateDir,
		HeartbeatTimeout: time.Second,
		ReapInterval:     50 * time.Millisecond,
	})
	hs2 := &http.Server{Handler: co2.Handler()}
	go hs2.Serve(ln2)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = co2.Shutdown(sctx)
		hs2.Close()
	})

	// The original job ID must resolve on the restarted coordinator and
	// run to completion.
	final, err := client.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if final.State != serve.Done {
		t.Fatalf("job ended %s (%s) after restart, want done", final.State, final.Error)
	}
	if final.ResumedFrom <= 0 || final.ResumedFrom%checkpointEvery != 0 {
		t.Fatalf("final lease resumed from iteration %d, want a positive checkpoint boundary", final.ResumedFrom)
	}
	got, err := co2.Draws(st.ID)
	if err != nil {
		t.Fatalf("draws: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("post-crash draws differ from uninterrupted reference (%d vs %d bytes)", len(got), len(want))
	}

	// The restarted coordinator must report what it replayed.
	capa := capabilityOf(t, base)
	if capa.State != "ready" {
		t.Fatalf("restarted coordinator state %q, want ready", capa.State)
	}
	if capa.Journal == nil || capa.Journal.RecordsReplayed == 0 {
		t.Fatalf("restarted coordinator journal status %+v, want records replayed > 0", capa.Journal)
	}
	if capa.Journal.Path == "" {
		t.Fatal("journal status has no path")
	}
}

// TestClusterCoordinatorRecoveringState holds recovery open with the
// test gate and verifies the advertised state machine: /readyz is 503
// "recovering" while the journal replays, job admission blocks rather
// than races, and the gate's release flips the coordinator to ready.
func TestClusterCoordinatorRecoveringState(t *testing.T) {
	gate := make(chan struct{})
	cfg := cluster.WithRecoverGate(cluster.CoordinatorConfig{
		StateDir:         t.TempDir(),
		HeartbeatTimeout: time.Second,
		ReapInterval:     50 * time.Millisecond,
	}, gate)
	co, base := startTestCoordinator(t, cfg)

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while recovering: %d, want 503", resp.StatusCode)
	}
	capa := capabilityOf(t, base)
	if capa.State != "recovering" || capa.Status != "recovering" {
		t.Fatalf("capability state %q status %q while recovering, want recovering", capa.State, capa.Status)
	}

	// Admission must wait for replay, not interleave with it.
	submitted := make(chan error, 1)
	go func() {
		_, err := co.SubmitJob(serve.JobSpec{Workload: "12cities", Scale: 0.25, Seed: 7, Iterations: 100})
		submitted <- err
	}()
	select {
	case err := <-submitted:
		t.Fatalf("SubmitJob returned (%v) while recovery was gated", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if err := <-submitted; err != nil {
		t.Fatalf("SubmitJob after recovery: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never became ready after the gate released")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if capa := capabilityOf(t, base); capa.State != "ready" {
		t.Fatalf("capability state %q after recovery, want ready", capa.State)
	}
}

// TestClusterCoordinatorReplayDeterminism replays byte-for-byte copies
// of one state directory in two coordinators: recovery must be a pure
// function of the bytes on disk, so both must reconstruct identical job
// tables. The directory also holds an admit record written before the
// job spec lost its "speculate" field; replay reads specs leniently, so
// that job must still run, to the same draws as its field-free twin.
func TestClusterCoordinatorReplayDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	seedDir := t.TempDir()
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
		StateDir:         seedDir,
		HeartbeatTimeout: time.Second,
		ReapInterval:     50 * time.Millisecond,
	})
	w := startTestWorker(t, base, "w1", hw.Skylake, serve.Config{CheckpointEvery: 20})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := serve.NewClient(base)

	// One finished job, one still queued (no second slot), so the replayed
	// table has both terminal and live entries.
	done, err := client.Submit(ctx, serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: 43, Iterations: 100, NoElide: true,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := client.Wait(ctx, done.ID, 20*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
	stopWorker(t, w)
	queued, err := client.Submit(ctx, serve.JobSpec{
		Workload: "disease", Scale: 0.25, Seed: 44, Iterations: 300, NoElide: true,
	})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	want, err := co.Draws(done.ID)
	if err != nil {
		t.Fatalf("draws: %v", err)
	}
	co.Kill()
	legacy := appendLegacyAdmit(t, seedDir, done.ID)

	load := func(dir string) map[string]serve.JobStatus {
		re := cluster.NewCoordinator(cluster.CoordinatorConfig{
			StateDir:         dir,
			HeartbeatTimeout: time.Second,
			ReapInterval:     time.Hour, // keep the reaper out of the picture
		})
		defer re.Kill()
		out := make(map[string]serve.JobStatus)
		for _, st := range re.ListJobs() { // gates on recovery completing
			out[st.ID] = st
		}
		return out
	}
	copyDir := func(dst string) {
		if err := filepath.WalkDir(seedDir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(seedDir, path)
			if d.IsDir() {
				return os.MkdirAll(filepath.Join(dst, rel), 0o755)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
		}); err != nil {
			t.Fatalf("copying state dir: %v", err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	copyDir(dirA)
	copyDir(dirB)

	a, b := load(dirA), load(dirB)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("replayed %d and %d jobs, want 3 each", len(a), len(b))
	}
	for id, sa := range a {
		sb, ok := b[id]
		if !ok {
			t.Fatalf("job %s replayed in A but not B", id)
		}
		if sa.State != sb.State || sa.Progress != sb.Progress || sa.Attempts != sb.Attempts {
			t.Errorf("job %s replays differ: A{%s %d iters %d attempts} B{%s %d iters %d attempts}",
				id, sa.State, sa.Progress, sa.Attempts, sb.State, sb.Progress, sb.Attempts)
		}
	}
	if a[done.ID].State != serve.Done {
		t.Errorf("finished job replayed as %s, want done", a[done.ID].State)
	}
	if a[queued.ID].State != serve.Queued {
		t.Errorf("live job replayed as %s, want queued (awaiting re-lease)", a[queued.ID].State)
	}
	if a[legacy].State != serve.Queued {
		t.Fatalf("legacy-spec job replayed as %s, want queued", a[legacy].State)
	}

	// The legacy job runs to the draws of the job whose spec it copied.
	re, reBase := startTestCoordinator(t, cluster.CoordinatorConfig{
		StateDir:         dirA,
		HeartbeatTimeout: time.Second,
		ReapInterval:     50 * time.Millisecond,
	})
	rw := startTestWorker(t, reBase, "w2", hw.Skylake, serve.Config{CheckpointEvery: 20})
	defer stopWorker(t, rw)
	final, err := serve.NewClient(reBase).Wait(ctx, legacy, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait legacy job: %v", err)
	}
	if final.State != serve.Done {
		t.Fatalf("legacy-spec job ended %s (%s), want done", final.State, final.Error)
	}
	got, err := re.Draws(legacy)
	if err != nil {
		t.Fatalf("legacy draws: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("legacy-spec job's draws differ from the job whose spec it copied")
	}
}

// appendLegacyAdmit journals, in the coordinator state directory dir, a
// copy of job id's admit record whose spec also carries "speculate": true
// — a field job specs no longer have — under a fresh job ID, which it
// returns.
func appendLegacyAdmit(t *testing.T, dir, id string) string {
	t.Helper()
	j, recs, err := journal.Open(filepath.Join(dir, "coordinator.journal"))
	if err != nil {
		t.Fatalf("opening journal: %v", err)
	}
	defer j.Close()
	const legacyID = "cjob-000099"
	for _, raw := range recs {
		var r map[string]any
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("journal record: %v", err)
		}
		if r["t"] != "admit" || r["id"] != id {
			continue
		}
		r["id"] = legacyID
		r["spec"].(map[string]any)["speculate"] = true
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(out); err != nil {
			t.Fatalf("appending legacy admit: %v", err)
		}
		return legacyID
	}
	t.Fatalf("no admit record for %s", id)
	return ""
}

// TestClusterCheckpointRetention verifies the bounded-retention
// contract on a durable coordinator: each superseding checkpoint GCs
// its predecessor's blob, a finished job's checkpoint is dropped, and
// the counters ride the fleet stats document.
func TestClusterCheckpointRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
		StateDir:         t.TempDir(),
		HeartbeatTimeout: time.Second,
		ReapInterval:     50 * time.Millisecond,
	})
	w := startTestWorker(t, base, "w1", hw.Skylake, serve.Config{CheckpointEvery: 20})
	defer stopWorker(t, w)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := serve.NewClient(base)
	st, err := client.Submit(ctx, serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: 47, Iterations: 200, NoElide: true,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Mid-run: exactly the newest snapshot is retained.
	sawRetained := false
	for {
		fs := co.ServiceStats().(cluster.FleetStats)
		if fs.CheckpointsRetained > 1 {
			t.Fatalf("%d checkpoints retained mid-run, want at most the newest", fs.CheckpointsRetained)
		}
		if fs.CheckpointsRetained == 1 {
			sawRetained = true
		}
		cur, err := client.Status(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if cur.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for the job")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if !sawRetained {
		t.Fatal("never observed a retained checkpoint mid-run")
	}

	fs := co.ServiceStats().(cluster.FleetStats)
	if fs.CheckpointsRetained != 0 {
		t.Fatalf("%d checkpoints retained after the job finished, want 0", fs.CheckpointsRetained)
	}
	// 200 iterations at 20/checkpoint upload ~10 snapshots; all but the
	// final drop was a supersede.
	if fs.CheckpointsGCed < 2 {
		t.Fatalf("checkpoints_gced = %d, want >= 2 (supersede GC plus terminal drop)", fs.CheckpointsGCed)
	}

	// The counters are part of the wire document.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	resp.Body.Close()
	if _, ok := raw["checkpoints_retained"]; !ok {
		t.Error("fleet stats JSON lacks checkpoints_retained")
	}
	if v, ok := raw["checkpoints_gced"]; !ok || v.(float64) < 2 {
		t.Errorf("fleet stats JSON checkpoints_gced = %v, want >= 2", v)
	}
}

// TestClusterReplaysResultWithGradBatch: a journal whose result record
// status still carries a "grad_batch" block — as coordinators wrote them
// while job statuses had one — replays. The durable coordinator rebuilds
// from it the job state and payload it rebuilds from the same record
// without the block, and both match the job that produced the record.
func TestClusterReplaysResultWithGradBatch(t *testing.T) {
	s := serve.NewServer(serve.Config{Workers: 1})
	defer s.Shutdown(context.Background())
	job, err := s.Submit(serve.JobSpec{Workload: "12cities", Scale: 0.1, Seed: 5, Iterations: 100, Chains: 4, NoElide: true})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	st := job.Status()
	payload, ready := job.Result()
	if st.State != serve.Done || !ready {
		t.Fatalf("source job ended %s (ready %v), want done", st.State, ready)
	}

	const id = "cjob-000001"
	replay := func(gradBatch bool) (serve.JobStatus, serve.ResultPayload) {
		var status map[string]any
		raw, _ := json.Marshal(st)
		if err := json.Unmarshal(raw, &status); err != nil {
			t.Fatal(err)
		}
		if gradBatch {
			status["grad_batch"] = map[string]any{"sweeps": 412, "chain_evals": 1480, "mean_occupancy": 3.59}
		}
		dir := t.TempDir()
		j, _, err := journal.Open(filepath.Join(dir, "coordinator.journal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []map[string]any{
			{"t": "admit", "id": id, "spec": st.Spec, "budget": st.Budget, "submitted_ns": st.SubmittedAt.UnixNano()},
			{"t": "result", "id": id, "worker": "w1", "attempt": 1, "status": status, "payload": payload,
				"finished_ns": st.FinishedAt.UnixNano()},
		} {
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(raw); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		co := cluster.NewCoordinator(cluster.CoordinatorConfig{StateDir: dir, HeartbeatTimeout: time.Second, ReapInterval: time.Hour})
		defer co.Kill()
		got, err := co.GetJob(id) // gates on recovery completing
		if err != nil {
			t.Fatalf("replayed job: %v", err)
		}
		res, ok, err := co.GetResult(id)
		if err != nil || !ok {
			t.Fatalf("replayed result ready=%v err=%v", ok, err)
		}
		return got, res
	}
	asJSON := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	withSt, withRes := replay(true)
	bareSt, bareRes := replay(false)
	if a, b := asJSON(withSt), asJSON(bareSt); a != b {
		t.Fatalf("status replayed with grad_batch differs from without:\n%s\n%s", a, b)
	}
	if a, b := asJSON(withRes), asJSON(bareRes); a != b {
		t.Fatalf("payload replayed with grad_batch differs from without:\n%s\n%s", a, b)
	}
	if withSt.State != serve.Done || withSt.Progress != st.Progress || withSt.Attempts != st.Attempts {
		t.Fatalf("replayed job %s at %d iterations after %d attempts, source %s at %d after %d",
			withSt.State, withSt.Progress, withSt.Attempts, st.State, st.Progress, st.Attempts)
	}
	payload.ID = id
	if a, b := asJSON(withRes), asJSON(payload); a != b {
		t.Fatalf("replayed payload differs from the source job's:\n%s\n%s", a, b)
	}
}

// writeJournal writes recs, JSON-encoded, as the coordinator journal of a
// fresh state directory, which it returns.
func writeJournal(t *testing.T, recs ...any) string {
	t.Helper()
	dir := t.TempDir()
	j, _, err := journal.Open(filepath.Join(dir, "coordinator.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, r := range recs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(raw); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestClusterReplayNeverRequeuesAcknowledgedCancel: a cancel that was
// acknowledged survives every restart. The first log is what a lease
// racing a queued cancel left behind when the lease record landed after
// the cancel's: the lease must replay as the no-op it was. The second is
// a cancel of a running job. Both jobs must come back canceled, twice
// (the second restart replays the compacted log), and never be leased.
func TestClusterReplayNeverRequeuesAcknowledgedCancel(t *testing.T) {
	spec := smallSpec(7)
	const id = "cjob-000001"
	now := time.Now().UnixNano()
	admit := map[string]any{"t": "admit", "id": id, "spec": spec, "budget": 100, "submitted_ns": now}
	lease := map[string]any{"t": "lease", "id": id, "worker": "w1", "attempt": 1, "granted_ns": now}
	for name, dir := range map[string]string{
		"lease after queued cancel": writeJournal(t, admit,
			map[string]any{"t": "final", "id": id, "state": "canceled", "err": "canceled by client while queued", "finished_ns": now},
			lease),
		"cancel while running": writeJournal(t, admit, lease,
			map[string]any{"t": "cancel", "id": id, "cause": "canceled by client while running"}),
	} {
		for restart := 1; restart <= 2; restart++ {
			co := cluster.NewCoordinator(cluster.CoordinatorConfig{StateDir: dir, HeartbeatTimeout: time.Second, ReapInterval: time.Hour})
			st, err := co.GetJob(id)
			if err != nil {
				t.Fatalf("%s, restart %d: %v", name, restart, err)
			}
			if st.State != serve.Canceled {
				t.Errorf("%s, restart %d: job replayed %s, want canceled", name, restart, st.State)
			}
			resp, err := co.Lease(cluster.LeaseRequest{Worker: "w2", Capability: capabilityFor("w2", hw.Skylake)})
			if err != nil || resp.Lease != nil {
				t.Errorf("%s, restart %d: lease after replay = %+v, %v; want none", name, restart, resp.Lease, err)
			}
			co.Kill()
		}
	}
}

// TestClusterReplayFailureServesNothing: a log whose second record does
// not decode fails recovery. The coordinator must then serve none of the
// replay it did not finish — not the job the first record admitted — and
// say so on /readyz.
func TestClusterReplayFailureServesNothing(t *testing.T) {
	dir := writeJournal(t,
		map[string]any{"t": "admit", "id": "cjob-000001", "spec": smallSpec(7), "budget": 100},
		[]string{"not", "a", "record"})
	co := cluster.NewCoordinator(cluster.CoordinatorConfig{StateDir: dir, HeartbeatTimeout: time.Second, ReapInterval: time.Hour})
	defer co.Kill()
	if _, err := co.GetJob("cjob-000001"); err == nil || errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("GetJob after a failed recovery: %v, want the recovery error", err)
	}
	if jobs := co.ListJobs(); len(jobs) != 0 {
		t.Fatalf("a failed recovery lists %d jobs, want none", len(jobs))
	}
	if c := co.Capability(); c.Status != "recovery-failed" || c.State != "recovering" {
		t.Fatalf("capability after a failed recovery: status %q state %q", c.Status, c.State)
	}
}

// TestClusterJournalFailureNeverAcknowledges closes the journal under a
// durable coordinator, as Kill leaves it, and then tries each transition
// that journals a record. Each must fail, leave the job as it was, fail
// again on a retry, and leave /readyz not ready; a restart finds the job
// as the journal last recorded it.
func TestClusterJournalFailureNeverAcknowledges(t *testing.T) {
	lease := cluster.LeaseRequest{Worker: "w1", Capability: capabilityFor("w1", hw.Skylake)}
	ckpt := (&mcmc.Checkpoint{Iteration: 20}).Encode()
	for _, tc := range []struct {
		name    string
		running bool
		op      func(co *cluster.Coordinator, id string) error
	}{
		{"admission", false, func(co *cluster.Coordinator, _ string) error {
			_, err := co.SubmitJob(smallSpec(2))
			return err
		}},
		{"lease", false, func(co *cluster.Coordinator, _ string) error {
			resp, err := co.Lease(lease)
			if err == nil && resp.Lease != nil {
				return fmt.Errorf("granted %s", resp.Lease.JobID)
			}
			return err
		}},
		{"checkpoint upload", true, func(co *cluster.Coordinator, id string) error {
			return co.UploadCheckpoint(id, "w1", 1, ckpt)
		}},
		{"result upload", true, func(co *cluster.Coordinator, id string) error {
			return co.UploadResult(cluster.ResultUpload{Worker: "w1", JobID: id, Attempt: 1,
				Status: serve.JobStatus{State: serve.Done, Progress: 100}})
		}},
		{"queued cancel", false, func(co *cluster.Coordinator, id string) error {
			_, err := co.CancelJob(id)
			return err
		}},
		{"running cancel", true, func(co *cluster.Coordinator, id string) error {
			_, err := co.CancelJob(id)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := cluster.CoordinatorConfig{StateDir: dir, HeartbeatTimeout: time.Second, ReapInterval: time.Hour}
			co := cluster.NewCoordinator(cfg)
			st, err := co.SubmitJob(smallSpec(1))
			if err != nil {
				t.Fatal(err)
			}
			if tc.running {
				if resp, err := co.Lease(lease); err != nil || resp.Lease == nil {
					t.Fatalf("lease: %+v, %v", resp.Lease, err)
				}
			}
			before, err := co.GetJob(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			co.Kill()

			for try := 1; try <= 2; try++ {
				if err := tc.op(co, st.ID); err == nil {
					t.Fatalf("try %d acknowledged with the journal closed", try)
				}
				after, err := co.GetJob(st.ID)
				if err != nil {
					t.Fatalf("GetJob after try %d: %v", try, err)
				}
				if a, b := asJSON(t, after), asJSON(t, before); a != b {
					t.Fatalf("try %d changed the job:\n%s\nwas\n%s", try, a, b)
				}
				if n := len(co.ListJobs()); n != 1 {
					t.Fatalf("try %d: %d jobs listed, want 1", try, n)
				}
				if fs := co.ServiceStats().(cluster.FleetStats); fs.CheckpointsRetained != 0 {
					t.Fatalf("try %d: %d checkpoints retained, want 0", try, fs.CheckpointsRetained)
				}
			}
			rec := httptest.NewRecorder()
			co.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("/readyz with a failed journal: %d %s, want 503", rec.Code, rec.Body)
			}

			re := cluster.NewCoordinator(cfg)
			defer re.Kill()
			jobs := re.ListJobs()
			if len(jobs) != 1 || jobs[0].State != serve.Queued || jobs[0].Attempts != before.Attempts {
				t.Fatalf("restart replayed %+v, want the one job queued after %d attempts", jobs, before.Attempts)
			}
		})
	}
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
