package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/hw"
	"bayessuite/internal/serve"
)

// runCrashSmoke is the `make crash-smoke` body — the durability
// acceptance test, with a real SIGKILL rather than an in-process
// simulation:
//
//  1. Run two jobs (HMC and NUTS) uninterrupted on a single node and
//     keep their raw draws as the reference.
//  2. Start a durable coordinator as a SUBPROCESS of this binary
//     (re-exec with -coordinator -state-dir), attach two in-process
//     workers, and submit the same two jobs.
//  3. Once both jobs are past at least two checkpoint uploads, SIGKILL
//     the coordinator — no drain, no flush beyond what each
//     acknowledged mutation already fsynced.
//  4. Restart the coordinator on the same address and state directory.
//     It replays its journal (the capability probe reports how many
//     records), requeues the unfinished jobs from their newest
//     fingerprint-verified checkpoints, and the workers — whose
//     deadline-and-retry wire rode out the outage — finish them.
//  5. The draws fetched under the ORIGINAL job IDs must be bit-identical
//     to the uninterrupted reference.
func runCrashSmoke(seed uint64) error {
	stateDir, err := os.MkdirTemp("", "bayesd-crash-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)

	const checkpointEvery = 20
	specs := []serve.JobSpec{
		{Workload: "12cities", Scale: 0.25, Seed: seed, Iterations: 200, NoElide: true, Sampler: "hmc"},
		{Workload: "12cities", Scale: 0.25, Seed: seed + 1, Iterations: 200, NoElide: true, Sampler: "nuts"},
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Phase 1: uninterrupted references.
	ref := serve.NewServer(serve.Config{Workers: 2, CheckpointEvery: checkpointEvery})
	refDraws := make([][]byte, len(specs))
	for i, spec := range specs {
		job, err := ref.Submit(spec)
		if err != nil {
			return fmt.Errorf("reference submit %d: %w", i, err)
		}
		<-job.Done()
		raw := job.Raw()
		if raw == nil {
			return fmt.Errorf("reference job %d has no raw result (%s)", i, job.Status().Error)
		}
		refDraws[i] = cluster.EncodeDraws(raw)
	}
	if err := ref.Shutdown(ctx); err != nil {
		return fmt.Errorf("reference shutdown: %w", err)
	}
	fmt.Printf("bayesd: crash-smoke references ready (%d jobs)\n", len(specs))

	// A fixed address the restarted coordinator can re-bind, so the
	// workers' configured coordinator URL survives the crash.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	startCo := func() (*exec.Cmd, error) {
		cmd := exec.Command(exe, "-coordinator", "-addr", addr, "-node", "crash-co",
			"-state-dir", stateDir, "-seed", fmt.Sprint(seed))
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		return cmd, nil
	}
	waitReady := func() error {
		for {
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("coordinator on %s never became ready", base)
			case <-time.After(50 * time.Millisecond):
			}
		}
	}

	co, err := startCo()
	if err != nil {
		return err
	}
	if err := waitReady(); err != nil {
		return err
	}

	// Workers live in THIS process and outlive the coordinator crash;
	// their per-call deadlines and capped-backoff retries are what rides
	// out the outage.
	var workers []*cluster.Worker
	for i, plat := range []hw.Platform{hw.Skylake, hw.Broadwell} {
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Name:              fmt.Sprintf("crash-w%d", i+1),
			Coordinator:       base,
			Platform:          plat,
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatTimeout:  time.Second,
			Engine:            serve.Config{CheckpointEvery: checkpointEvery},
		})
		if err != nil {
			return err
		}
		workers = append(workers, w)
	}

	client := serve.NewClient(base)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := client.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		ids[i] = st.ID
	}

	// Wait until every job is past two checkpoint boundaries, so the kill
	// lands mid-run with real resume state on disk.
	for {
		past := 0
		for _, id := range ids {
			st, err := client.Status(ctx, id)
			if err == nil && (st.Progress >= 2*checkpointEvery || st.State.Terminal()) {
				past++
			}
		}
		if past == len(ids) {
			break
		}
		select {
		case <-ctx.Done():
			return errors.New("timed out waiting for checkpoint progress before the kill")
		case <-time.After(20 * time.Millisecond):
		}
	}

	if err := co.Process.Signal(syscall.SIGKILL); err != nil {
		return fmt.Errorf("SIGKILL coordinator: %w", err)
	}
	co.Wait()
	fmt.Println("bayesd: coordinator SIGKILLed mid-run; restarting on the same state dir")

	co, err = startCo()
	if err != nil {
		return err
	}
	defer func() {
		co.Process.Signal(syscall.SIGTERM)
		co.Wait()
	}()
	if err := waitReady(); err != nil {
		return err
	}

	// The replay report: how many journal records rebuilt the world.
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	req.Header.Set("Accept", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		var capa serve.Capability
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if json.Unmarshal(body, &capa) == nil && capa.Journal != nil {
			fmt.Printf("bayesd: restarted coordinator replayed %d journal records in %.1fms (state %s)\n",
				capa.Journal.RecordsReplayed, capa.Journal.ReplayMillis, capa.State)
			if capa.Journal.RecordsReplayed == 0 {
				return errors.New("restarted coordinator replayed 0 records; the journal was empty")
			}
		} else {
			return fmt.Errorf("restarted coordinator reported no journal status: %s", body)
		}
	}

	// The original job IDs must still resolve and must finish.
	for i, id := range ids {
		final, err := client.Wait(ctx, id, 50*time.Millisecond)
		if err != nil {
			return fmt.Errorf("wait %s after restart: %w", id, err)
		}
		if final.State != serve.Done {
			return fmt.Errorf("job %s ended %s (%s), want done", id, final.State, final.Error)
		}
		dresp, err := http.Get(base + "/cluster/v1/jobs/" + id + "/draws")
		if err != nil {
			return err
		}
		draws, _ := io.ReadAll(dresp.Body)
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			return fmt.Errorf("draws %s: %d, want 200", id, dresp.StatusCode)
		}
		if !cluster.DrawsEqual(refDraws[i], draws) {
			return fmt.Errorf("%s (%s): draws differ from uninterrupted reference (%d vs %d bytes)",
				id, specs[i].Sampler, len(draws), len(refDraws[i]))
		}
		fmt.Printf("bayesd: %s (%s) finished across the crash; draws bit-identical (%d bytes)\n",
			id, specs[i].Sampler, len(draws))
	}

	for _, w := range workers {
		if err := w.Stop(ctx); err != nil {
			return fmt.Errorf("worker drain: %w", err)
		}
	}
	return nil
}
