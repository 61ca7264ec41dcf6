package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/fault"
	"bayessuite/internal/hw"
	"bayessuite/internal/mathx"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/serve"
)

// runCoordinator boots the fleet control plane: calibrate the LLC
// predictor, start the coordinator (durable when stateDir is set — its
// journal replays before any lease is granted, while /readyz reports
// "recovering"), and serve the client API plus the /cluster/v1 worker
// protocol until a signal drains it.
func runCoordinator(addr string, queueCap int, seed uint64, node, stateDir string, pprofOn bool) error {
	pts, err := serve.SuiteCalibration(seed)
	if err != nil {
		return fmt.Errorf("calibrating predictor: %w", err)
	}
	co := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Node:              node,
		QueueCap:          queueCap,
		CalibrationPoints: pts,
		StateDir:          stateDir,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: withPprof(co.Handler(), pprofOn)}
	if stateDir != "" {
		fmt.Printf("bayesd: coordinator %s durable in %s\n", node, stateDir)
	}
	fmt.Printf("bayesd: coordinator %s listening on http://%s\n", node, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("bayesd: %v: coordinator draining\n", sig)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := co.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bayesd: coordinator drain:", err)
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("bayesd: coordinator drained, bye")
	return nil
}

// runWorker boots one fleet worker: an embedded single-platform engine
// pulling work from the coordinator, its own API served on addr (the
// /readyz capability probe is how operators inspect a worker directly).
func runWorker(addr, coordinator, name, platform string, slots, retries int, pprofOn bool) error {
	plat, ok := hw.ByName(platform)
	if !ok {
		return fmt.Errorf("unknown platform %q (want Skylake or Broadwell)", platform)
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:        name,
		Coordinator: coordinator,
		Platform:    plat,
		Slots:       slots,
		Engine:      serve.Config{MaxRetries: retries},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: withPprof(w.Engine().Handler(), pprofOn)}
	fmt.Printf("bayesd: worker %s (%s, %d slots, %s kernels) on http://%s, pulling from %s\n",
		name, plat.Codename, slots, mathx.VectorISA(), ln.Addr(), coordinator)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("bayesd: %v: worker %s draining (running jobs finish and upload)\n", sig, name)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := w.Stop(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bayesd: worker drain:", err)
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Printf("bayesd: worker %s drained, bye\n", name)
	return nil
}

// runClusterSmoke is the `make cluster-smoke` body, in two phases.
//
// Phase 1 — fleet serving: a coordinator and two heterogeneous workers
// (Skylake + Broadwell) in one process over real HTTP; a job is
// submitted through the standard client API, placed by the fleet
// scheduler, run on a worker, and its result and fleet stats are
// verified, along with the content-negotiated /readyz capability probe.
//
// Phase 2 — the acceptance criterion: a job is started on worker A, an
// injected WorkerLoss fault kills A mid-run (after checkpoint uploads),
// the coordinator reaps A by heartbeat silence and requeues the job from
// its last checkpoint, worker B (started only after the kill) picks it
// up, and the final draws are compared bit for bit against the same spec
// run uninterrupted on a single node.
func runClusterSmoke(seed uint64) error {
	if err := smokeFleetServing(seed); err != nil {
		return fmt.Errorf("phase 1 (fleet serving): %w", err)
	}
	fmt.Println("bayesd: cluster phase 1 (fleet serving) ok")
	if err := smokeMigration(seed); err != nil {
		return fmt.Errorf("phase 2 (worker-loss migration): %w", err)
	}
	fmt.Println("bayesd: cluster phase 2 (worker-loss migration, bit-identical draws) ok")
	return nil
}

// startCoordinator boots a coordinator on a random port, returning it,
// its base URL, and the HTTP server.
func startCoordinator(cfg cluster.CoordinatorConfig) (*cluster.Coordinator, string, *http.Server, error) {
	co := cluster.NewCoordinator(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: co.Handler()}
	go hs.Serve(ln)
	return co, fmt.Sprintf("http://%s", ln.Addr()), hs, nil
}

func smokeFleetServing(seed uint64) error {
	pts, err := serve.SuiteCalibration(seed)
	if err != nil {
		return fmt.Errorf("calibrating predictor: %w", err)
	}
	co, base, hs, err := startCoordinator(cluster.CoordinatorConfig{
		CalibrationPoints: pts,
		HeartbeatTimeout:  800 * time.Millisecond,
		ReapInterval:      100 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer hs.Close()
	fmt.Printf("bayesd: smoke coordinator on %s\n", base)

	mk := func(name string, plat hw.Platform) (*cluster.Worker, error) {
		return cluster.NewWorker(cluster.WorkerConfig{
			Name: name, Coordinator: base, Platform: plat, Slots: 2,
			HeartbeatInterval: 100 * time.Millisecond,
			Engine:            serve.Config{CheckpointEvery: 50},
		})
	}
	w1, err := mk("skylake-1", hw.Skylake)
	if err != nil {
		return err
	}
	w2, err := mk("broadwell-1", hw.Broadwell)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// The capability probe: bare body for old clients, full document
	// under Accept: application/json.
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %d, want 200", resp.StatusCode)
	}
	fmt.Printf("bayesd: coordinator capability: %s", body)

	// Wait until both workers have registered, so the placement below runs
	// over the full fleet rather than whoever registered first.
	for {
		if len(co.Workers()) >= 2 {
			break
		}
		select {
		case <-ctx.Done():
			return errors.New("timed out waiting for workers to register")
		case <-time.After(10 * time.Millisecond):
		}
	}

	client := serve.NewClient(base)
	st, err := client.Submit(ctx, serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: seed, Iterations: 2000,
	})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	final, err := client.Wait(ctx, st.ID, 25*time.Millisecond)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if final.State != serve.Done {
		return fmt.Errorf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Placement == nil || final.Placement.Node == "" {
		return errors.New("no fleet placement recorded")
	}
	fmt.Printf("bayesd: placed on %s — %s\n", final.Placement.Node, final.Placement.Reason)
	// The small job fits both nodes' scaled LLC thresholds, so the
	// paper's frequency rule picks the 4.2 GHz Skylake over the 3.6 GHz
	// Broadwell.
	if final.Node != "skylake-1" {
		return fmt.Errorf("job ran on %q, want skylake-1 (frequency-first among fitting nodes)", final.Node)
	}
	res, err := client.Result(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if len(res.Summaries) == 0 {
		return errors.New("no posterior summaries")
	}

	// Fleet stats must aggregate both workers.
	sresp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	sbody, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	fs := co.ServiceStats().(cluster.FleetStats)
	if fs.Workers < 2 || fs.Done < 1 {
		return fmt.Errorf("fleet stats: %d workers, %d done (want ≥2, ≥1): %s", fs.Workers, fs.Done, sbody)
	}
	fmt.Printf("bayesd: fleet stats: %d workers (%d healthy), %d done, saved %d iterations\n",
		fs.Workers, fs.Healthy, fs.Done, fs.SavedIterations)

	// Graceful drain: worker 1 leaves; the fleet keeps serving.
	if err := w1.Stop(ctx); err != nil {
		return fmt.Errorf("worker drain: %w", err)
	}
	if err := w2.Stop(ctx); err != nil {
		return fmt.Errorf("worker drain: %w", err)
	}
	return co.Shutdown(ctx)
}

func smokeMigration(seed uint64) error {
	spec := serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: seed,
		Iterations: 160, NoElide: true,
	}
	const checkpointEvery = 20
	const killAtIter = 60

	// Reference: the same spec, uninterrupted, on a single node.
	ref := serve.NewServer(serve.Config{Workers: 1, CheckpointEvery: checkpointEvery})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	refJob, err := ref.Submit(spec)
	if err != nil {
		return fmt.Errorf("reference submit: %w", err)
	}
	<-refJob.Done()
	refRaw := refJob.Raw()
	if refRaw == nil {
		return errors.New("reference run has no raw result")
	}
	refDraws := cluster.EncodeDraws(refRaw)
	if err := ref.Shutdown(ctx); err != nil {
		return fmt.Errorf("reference shutdown: %w", err)
	}

	co, base, hs, err := startCoordinator(cluster.CoordinatorConfig{
		HeartbeatTimeout: 250 * time.Millisecond,
		ReapInterval:     50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer hs.Close()

	// Worker A carries the scheduled fault: WorkerLoss at (chain 0, iter
	// 60). Checkpoints stream every 20 iterations, one boundary behind the
	// sampler at most, so the coordinator holds the iteration-40 snapshot
	// (or, if that upload was still in flight, iteration 20) when A dies.
	var w1 *cluster.Worker
	inj := fault.New(seed).Schedule(0, killAtIter, fault.WorkerLoss)
	w1, err = cluster.NewWorker(cluster.WorkerConfig{
		Name: "doomed", Coordinator: base, Platform: hw.Skylake,
		HeartbeatInterval: 40 * time.Millisecond,
		Engine: serve.Config{
			CheckpointEvery: checkpointEvery,
			InjectFaultHook: func(job *serve.Job, attempt int) func(chain, iter int) mcmc.FaultAction {
				return inj.Hook
			},
		},
	})
	if err != nil {
		return err
	}
	inj.WithWorkerKill(func() { w1.Kill() })

	client := serve.NewClient(base)
	st, err := client.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	// Wait for the kill to land and the coordinator to reap worker A.
	for {
		fs := co.ServiceStats().(cluster.FleetStats)
		if fs.Reaped >= 1 && fs.Migrations >= 1 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for worker loss (reaped %d, migrations %d)",
				fs.Reaped, fs.Migrations)
		case <-time.After(20 * time.Millisecond):
		}
	}
	fmt.Println("bayesd: worker 'doomed' killed mid-run and reaped; job requeued from checkpoint")

	// Only now does the rescue worker exist: the resumed run cannot have
	// started anywhere before the loss.
	w2, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: "rescue", Coordinator: base, Platform: hw.Broadwell,
		HeartbeatInterval: 40 * time.Millisecond,
		Engine:            serve.Config{CheckpointEvery: checkpointEvery},
	})
	if err != nil {
		return err
	}

	final, err := client.Wait(ctx, st.ID, 25*time.Millisecond)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if final.State != serve.Done {
		return fmt.Errorf("migrated job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Node != "rescue" {
		return fmt.Errorf("migrated job finished on %q, want rescue", final.Node)
	}
	if final.Attempts < 2 {
		return fmt.Errorf("job took %d lease(s), want ≥2 (one per worker)", final.Attempts)
	}
	// Bit-identity alone can't distinguish a checkpoint resume from a
	// deterministic restart; ResumedFrom can.
	if final.ResumedFrom <= 0 {
		return fmt.Errorf("final lease resumed from iteration %d, want >0 (checkpoint migration)", final.ResumedFrom)
	}

	dresp, err := http.Get(base + "/cluster/v1/jobs/" + st.ID + "/draws")
	if err != nil {
		return err
	}
	migDraws, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		return fmt.Errorf("draws: %d, want 200", dresp.StatusCode)
	}
	if !cluster.DrawsEqual(refDraws, migDraws) {
		return fmt.Errorf("migrated draws differ from uninterrupted reference (%d vs %d bytes)",
			len(migDraws), len(refDraws))
	}
	fmt.Printf("bayesd: migrated draws bit-identical to uninterrupted reference (%d bytes, %d chains × %d iterations)\n",
		len(migDraws), final.Spec.Chains, final.Progress)

	// The job ran batched; the rescue worker's heartbeat stats must carry
	// its batching counters into the fleet rollup.
	for {
		fs := co.ServiceStats().(cluster.FleetStats)
		if fs.BatchChainEvals > 0 {
			fmt.Printf("bayesd: fleet batching counters: %d chain evals in %d sweeps (occupancy %.2f)\n",
				fs.BatchChainEvals, fs.BatchSweeps, fs.MeanBatchOccupancy)
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("timed out waiting for batching counters in fleet stats (sweeps %d, chain evals %d)",
				fs.BatchSweeps, fs.BatchChainEvals)
		case <-time.After(20 * time.Millisecond):
		}
	}

	if err := w2.Stop(ctx); err != nil {
		return fmt.Errorf("rescue drain: %w", err)
	}
	return co.Shutdown(ctx)
}
