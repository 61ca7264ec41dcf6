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
//	bayesd -smoke          # boot on a random port, run one job end-to-end
//	bayesd -coordinator [-node NAME] [-state-dir DIR]   # fleet control plane
//	bayesd -worker URL [-node NAME] [-platform P] [-slots N]
//	bayesd -cluster-smoke  # coordinator + 2 workers + migration self-test
//	bayesd -crash-smoke    # SIGKILL a durable coordinator mid-run; restart;
//	                       # draws must be bit-identical to an unfaulted run
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
// Jobs whose every chain is quarantined (panic, non-finite density,
// divergence storm) are retried up to -retries times from their last
// all-healthy checkpoint, with capped exponential backoff. GET /healthz
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
	smoke := flag.Bool("smoke", false, "self-test: boot on a random port, run a small job to completion, assert elision fired")
	coordinator := flag.Bool("coordinator", false, "run as cluster coordinator: admit jobs, shard them across pull-based workers")
	workerOf := flag.String("worker", "", "run as cluster worker pulling from the given coordinator URL")
	node := flag.String("node", "", "node name (default: coordinator / worker-<pid>)")
	platform := flag.String("platform", "Skylake", "simulated platform for -worker mode (Skylake or Broadwell)")
	slots := flag.Int("slots", 1, "concurrent job slots for -worker mode")
	clusterSmoke := flag.Bool("cluster-smoke", false, "self-test: coordinator + two workers in one process; verifies fleet placement and that a job migrated off a killed worker yields bit-identical draws")
	stateDir := flag.String("state-dir", "", "durable coordinator state directory (journal + blob store); a restarted coordinator replays it and resumes unfinished jobs from their checkpoints")
	pprofOn := flag.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on this role's listener")
	crashSmoke := flag.Bool("crash-smoke", false, "self-test: SIGKILL a durable coordinator subprocess mid-run, restart it on the same -state-dir, and verify every job finishes with draws bit-identical to an uninterrupted run")
	flag.Parse()

	switch {
	case *smoke:
		if err := runSmoke(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "bayesd: SMOKE FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("bayesd: SMOKE PASS")
	case *clusterSmoke:
		if err := runClusterSmoke(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "bayesd: CLUSTER SMOKE FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("bayesd: CLUSTER SMOKE PASS")
	case *crashSmoke:
		if err := runCrashSmoke(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "bayesd: CRASH SMOKE FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("bayesd: CRASH SMOKE PASS")
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

// boot calibrates the placement predictor and starts the server and its
// HTTP listener, returning the server and the bound address.
func boot(addr string, queueCap, workers int, timeout time.Duration, seed uint64, retries int) (*serve.Server, net.Listener, error) {
	pts, err := serve.SuiteCalibration(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("calibrating predictor: %w", err)
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
		return nil, nil, err
	}
	return srv, ln, nil
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

func run(addr string, queueCap, workers int, timeout time.Duration, seed uint64, retries int, pprofOn bool) error {
	srv, ln, err := boot(addr, queueCap, workers, timeout, seed, retries)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: withPprof(srv.Handler(), pprofOn)}
	fmt.Printf("bayesd: listening on http://%s (%s kernels)\n", ln.Addr(), mathx.VectorISA())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("bayesd: %v: draining (running jobs complete, queued jobs cancel)\n", sig)
	}

	// Drain the job queue first so in-flight work lands, then close the
	// HTTP side.
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "bayesd: drain:", err)
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("bayesd: drained, bye")
	return nil
}

// runSmoke is the `make serve-smoke` body: boot on a random port, submit
// a small 12cities job over real HTTP, poll it to completion, and assert
// that convergence elision fired and summaries came back.
func runSmoke(seed uint64) error {
	srv, ln, err := boot("127.0.0.1:0", 8, 2, 0, seed, 2)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	base := fmt.Sprintf("http://%s", ln.Addr())
	fmt.Printf("bayesd: smoke server on %s\n", base)
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			return fmt.Errorf("GET %s: %w", probe, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %d, want 200", probe, resp.StatusCode)
		}
	}
	fmt.Println("bayesd: healthz/readyz ok")
	client := serve.NewClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	st, err := client.Submit(ctx, serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: 7, Iterations: 2000,
	})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("bayesd: submitted %s (%s, budget %d)\n", st.ID, st.Spec.Workload, st.Budget)

	final, err := client.Wait(ctx, st.ID, 100*time.Millisecond)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if final.State != serve.Done {
		return fmt.Errorf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Placement == nil {
		return errors.New("no placement decision recorded")
	}
	fmt.Printf("bayesd: placed on %s — %s\n", final.Placement.Platform, final.Placement.Reason)
	if !final.Elided {
		return fmt.Errorf("elision did not fire (progress %d/%d)", final.Progress, final.Budget)
	}
	fmt.Printf("bayesd: elision fired at %d/%d iterations (saved %d iterations, %.1f simulated J)\n",
		final.Progress, final.Budget, final.SavedIterations, final.SavedJoules)

	res, err := client.Result(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if len(res.Summaries) == 0 {
		return errors.New("no posterior summaries")
	}
	if len(final.RHatTrace) == 0 {
		return errors.New("no R-hat trajectory reported")
	}
	fmt.Printf("bayesd: max R-hat %.3f over %d params; %d convergence checks\n",
		res.MaxRHat, len(res.Summaries), len(final.RHatTrace))

	stats, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	fmt.Printf("bayesd: stats: %d done, saved %d iterations / %.1f J\n",
		stats.Done, stats.SavedIterations, stats.SavedJoules)
	return srv.Shutdown(ctx)
}
