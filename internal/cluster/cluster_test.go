package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/hw"
	"bayessuite/internal/mathx"
	"bayessuite/internal/serve"
)

// startTestCoordinator boots a coordinator behind an httptest server and
// arranges bounded cleanup.
func startTestCoordinator(t *testing.T, cfg cluster.CoordinatorConfig) (*cluster.Coordinator, string) {
	t.Helper()
	return startTestCoordinatorBehind(t, cfg, func(h http.Handler) http.Handler { return h })
}

// startTestCoordinatorBehind is startTestCoordinator with the test's own
// handler wrapped around the coordinator's.
func startTestCoordinatorBehind(t *testing.T, cfg cluster.CoordinatorConfig, wrap func(http.Handler) http.Handler) (*cluster.Coordinator, string) {
	t.Helper()
	co := cluster.NewCoordinator(cfg)
	hs := httptest.NewServer(wrap(co.Handler()))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
		hs.Close()
	})
	return co, hs.URL
}

// startTestWorker boots one fleet worker with test-speed intervals.
func startTestWorker(t *testing.T, coordinator, name string, plat hw.Platform, engine serve.Config) *cluster.Worker {
	t.Helper()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:              name,
		Coordinator:       coordinator,
		Platform:          plat,
		HeartbeatInterval: 40 * time.Millisecond,
		Engine:            engine,
	})
	if err != nil {
		t.Fatalf("worker %s: %v", name, err)
	}
	return w
}

func stopWorker(t *testing.T, w *cluster.Worker) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Stop(ctx); err != nil {
		t.Fatalf("stopping worker %s: %v", w.Name(), err)
	}
}

// waitForWorkers blocks until n workers have registered with the
// coordinator.
func waitForWorkers(t *testing.T, co *cluster.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(co.Workers()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d workers (have %d)", n, len(co.Workers()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterEndToEnd drives the whole happy path over real HTTP: a
// heterogeneous two-worker fleet, a job submitted through the standard
// client API, fleet placement (frequency-first among fitting nodes),
// result retrieval, and fleet-wide stats aggregation.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	pts, err := serve.SuiteCalibration(7)
	if err != nil {
		t.Fatalf("calibration: %v", err)
	}
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
		CalibrationPoints: pts,
		HeartbeatTimeout:  time.Second,
		ReapInterval:      100 * time.Millisecond,
	})
	w1 := startTestWorker(t, base, "skylake-1", hw.Skylake, serve.Config{CheckpointEvery: 50})
	w2 := startTestWorker(t, base, "broadwell-1", hw.Broadwell, serve.Config{CheckpointEvery: 50})
	waitForWorkers(t, co, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	client := serve.NewClient(base)
	st, err := client.Submit(ctx, serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: 7, Iterations: 2000,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := client.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != serve.Done {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	// The small job fits both scaled thresholds; the paper's frequency
	// rule picks the 4.2 GHz Skylake node.
	if final.Node != "skylake-1" {
		t.Fatalf("job ran on %q, want skylake-1 (frequency-first among fitting nodes)", final.Node)
	}
	if final.Placement == nil || final.Placement.Node != "skylake-1" {
		t.Fatalf("placement %+v, want node skylake-1", final.Placement)
	}
	res, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(res.Summaries) == 0 {
		t.Fatal("no posterior summaries")
	}

	fs := co.ServiceStats().(cluster.FleetStats)
	if fs.Workers != 2 || fs.Healthy != 2 {
		t.Fatalf("fleet stats: %d workers (%d healthy), want 2/2", fs.Workers, fs.Healthy)
	}
	if fs.Done != 1 {
		t.Fatalf("fleet stats: %d done, want 1", fs.Done)
	}
	ws := co.Workers()
	if len(ws) != 2 || ws[0].Node != "broadwell-1" || ws[1].Node != "skylake-1" {
		t.Fatalf("workers list %+v, want [broadwell-1 skylake-1]", ws)
	}
	if ws[1].LLCBytes != hw.Skylake.LLCBytes {
		t.Fatalf("skylake-1 capability LLC %d, want %d", ws[1].LLCBytes, hw.Skylake.LLCBytes)
	}
	if ws[0].KernelISA != mathx.VectorISA() || co.Capability().KernelISA != "" {
		t.Fatalf("kernel_isa: worker %q, coordinator %q; want %q and none", ws[0].KernelISA, co.Capability().KernelISA, mathx.VectorISA())
	}

	// /v1/stats over HTTP serves the same fleet document.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var wire cluster.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatalf("decoding fleet stats: %v", err)
	}
	resp.Body.Close()
	if wire.Role != "coordinator" || wire.Done != 1 || len(wire.PerWorker) != 2 {
		t.Fatalf("wire fleet stats %+v, want coordinator role, 1 done, 2 workers", wire)
	}

	stopWorker(t, w1)
	stopWorker(t, w2)
	// Graceful leave: both workers said goodbye, the fleet is empty.
	if n := len(co.Workers()); n != 0 {
		t.Fatalf("%d workers still registered after graceful stops, want 0", n)
	}
}

// TestClusterCancelPropagatesViaHeartbeat cancels a running job through
// the client API and expects the worker to learn of it on its next
// heartbeat and upload a canceled terminal state.
func TestClusterCancelPropagatesViaHeartbeat(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Second,
		ReapInterval:     100 * time.Millisecond,
	})
	w := startTestWorker(t, base, "w1", hw.Skylake, serve.Config{CheckpointEvery: 50})
	waitForWorkers(t, co, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := serve.NewClient(base)
	st, err := client.Submit(ctx, serve.JobSpec{
		Workload: "12cities", Scale: 0.5, Seed: 7, Iterations: 200000, NoElide: true,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait until the job is actually running on the worker.
	for {
		cur, err := client.Status(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if cur.State == serve.Running && cur.Node == "w1" {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for the job to start")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if _, err := client.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := client.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != serve.Canceled {
		t.Fatalf("job ended %s, want canceled", final.State)
	}
	stopWorker(t, w)
}

// TestClusterInjectorStaleUploadRejected verifies the assignment check:
// a result upload claiming a worker the job is not assigned to must be
// rejected with 409, and must not terminalize the job.
func TestClusterInjectorStaleUploadRejected(t *testing.T) {
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
		HeartbeatTimeout: time.Second,
		ReapInterval:     100 * time.Millisecond,
	})
	client := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := client.Submit(ctx, serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: 7, Iterations: 100, NoElide: true,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// No worker ever held this job; an upload from "impostor" is stale by
	// definition.
	up := cluster.ResultUpload{
		Worker: "impostor",
		Status: serve.JobStatus{State: serve.Done},
	}
	body, _ := json.Marshal(up)
	resp, err := http.Post(base+"/cluster/v1/jobs/"+st.ID+"/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST result: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale result upload: HTTP %d (%s), want 409", resp.StatusCode, msg)
	}
	cur, err := co.GetJob(st.ID)
	if err != nil {
		t.Fatalf("get job: %v", err)
	}
	if cur.State.Terminal() {
		t.Fatalf("job reached %s via stale upload, want still queued", cur.State)
	}
}
