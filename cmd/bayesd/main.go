// Command bayesd is the BayesSuite inference daemon: a long-lived HTTP
// service that admits inference jobs through a bounded queue, places each
// on a simulated platform with the LLC-aware scheduler (§V), samples with
// runtime convergence elision (§VI), and reports live progress, R̂
// trajectories, posterior summaries, and aggregate savings.
//
// Usage:
//
//	bayesd [-addr 127.0.0.1:8080] [-queue 64] [-workers 2]
//	       [-timeout 0] [-seed 7] [-retries 2] [-pprof]
//	bayesd -coordinator [-node NAME] [-state-dir DIR]   # fleet control plane
//	bayesd -worker URL [-node NAME] [-platform P] [-slots N]
//
// With -state-dir the coordinator is durable: every acknowledged state
// transition (admit, lease, checkpoint, result, cancel, requeue) is
// journaled and fsynced under DIR before the acknowledgment leaves, with
// checkpoints and result draws in a content-addressed blob store. A
// coordinator restarted on the same DIR replays the journal, reports
// "recovering" on /readyz until done, and requeues unfinished jobs from
// their newest fingerprint-verified checkpoints — clients keep their job
// IDs, and the deterministic sampler contract makes the re-run draws
// bit-identical to an uninterrupted run.
//
// In cluster mode the coordinator serves the same client API as a single
// node plus the /cluster/v1 worker protocol; workers pull leases from it,
// heartbeat, stream checkpoints, and upload results, so a job migrates
// off a lost worker with bit-identical draws (see internal/cluster).
//
// Jobs whose every chain is quarantined (a panic or a non-finite
// density) are retried up to -retries times from their last all-healthy
// checkpoint, with capped exponential backoff. GET /healthz
// is liveness (200 while the process serves); GET /readyz is readiness
// (503 once a drain begins).
//
// With -pprof (off by default; node, coordinator and worker roles alike)
// the role's own listener also serves net/http/pprof under /debug/pprof/,
// so a daemon under load can be profiled as it runs:
// go tool pprof http://ADDR/debug/pprof/profile?seconds=10.
//
// On SIGINT/SIGTERM the daemon drains: admission stops (503), queued
// jobs and pending retries are canceled, running jobs complete.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bayessuite/internal/mathx"
	"bayessuite/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	queueCap := flag.Int("queue", 64, "admission queue capacity")
	workers := flag.Int("workers", 2, "concurrent job runners")
	timeout := flag.Duration("timeout", 0, "default per-job timeout (0: none)")
	seed := flag.Uint64("seed", 7, "seed for the calibration datasets")
	retries := flag.Int("retries", 2, "retries per job when every chain faults (-1: disable)")
	coordinator := flag.Bool("coordinator", false, "run as cluster coordinator: admit jobs, shard them across pull-based workers")
	workerOf := flag.String("worker", "", "run as cluster worker pulling from the given coordinator URL")
	node := flag.String("node", "", "node name (default: coordinator / worker-<pid>)")
	platform := flag.String("platform", "Skylake", "simulated platform for -worker mode (Skylake or Broadwell)")
	slots := flag.Int("slots", 1, "concurrent job slots for -worker mode")
	stateDir := flag.String("state-dir", "", "durable coordinator state directory (journal + blob store); a restarted coordinator replays it and resumes unfinished jobs from their checkpoints")
	pprofOn := flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on this role's listener")
	flag.Parse()

	switch {
	case *coordinator:
		name := *node
		if name == "" {
			name = "coordinator"
		}
		if err := runCoordinator(*addr, *queueCap, *seed, name, *stateDir, *pprofOn); err != nil {
			fmt.Fprintln(os.Stderr, "bayesd:", err)
			os.Exit(1)
		}
	case *workerOf != "":
		name := *node
		if name == "" {
			name = fmt.Sprintf("worker-%d", os.Getpid())
		}
		if err := runWorker(*addr, *workerOf, name, *platform, *slots, *retries, *pprofOn); err != nil {
			fmt.Fprintln(os.Stderr, "bayesd:", err)
			os.Exit(1)
		}
	default:
		if err := run(*addr, *queueCap, *workers, *timeout, *seed, *retries, *pprofOn); err != nil {
			fmt.Fprintln(os.Stderr, "bayesd:", err)
			os.Exit(1)
		}
	}
}

// withPprof returns h, with the runtime profiling endpoints mounted under
// /debug/pprof/ in front of it when on.
func withPprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// run boots the single-node daemon: calibrate the placement predictor,
// start the server, and serve its API until a signal drains it.
func run(addr string, queueCap, workers int, timeout time.Duration, seed uint64, retries int, pprofOn bool) error {
	pts, err := serve.SuiteCalibration(seed)
	if err != nil {
		return fmt.Errorf("calibrating predictor: %w", err)
	}
	srv := serve.NewServer(serve.Config{
		QueueCap:          queueCap,
		Workers:           workers,
		DefaultTimeout:    timeout,
		CalibrationPoints: pts,
		MaxRetries:        retries,
	})
	if fallback, note := srv.FrequencyFirst(); fallback {
		fmt.Printf("bayesd: placement: frequency-first fallback (%s)\n", note)
	} else {
		fmt.Printf("bayesd: placement: %s\n", note)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("bayesd: listening on http://%s (%s kernels)\n", ln.Addr(), mathx.VectorISA())
	// Draining the job queue lets in-flight work land before the HTTP side
	// closes.
	return serveUntilSignal(ln, withPprof(srv.Handler(), pprofOn),
		"", " (running jobs complete, queued jobs cancel)", srv.Shutdown)
}

// serveUntilSignal serves h on ln until SIGINT or SIGTERM, then drains the
// role (up to two minutes) before it closes the HTTP side. who names the
// role in the log lines ("" for the single node), note says what the
// drain does.
func serveUntilSignal(ln net.Listener, h http.Handler, who, note string, drain func(context.Context) error) error {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("bayesd: %v: %sdraining%s\n", sig, who, note)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "bayesd: %sdrain: %v\n", who, err)
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Printf("bayesd: %sdrained, bye\n", who)
	return nil
}
