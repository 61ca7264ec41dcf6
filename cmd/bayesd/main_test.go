package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/hw"
	"bayessuite/internal/serve"
)

// runMainEnv set to 1 in a child's environment makes the test binary run
// bayesd's main with the child's arguments instead of the tests: how
// TestCoordinatorSIGKILLRestart gets a coordinator it can kill as a
// process.
const runMainEnv = "BAYESD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// coordinatorProc is a bayesd -coordinator child process.
type coordinatorProc struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once Wait returned
}

// startCoordinatorProc starts `bayesd -coordinator -state-dir dir` on addr
// as a child process and waits until its /readyz answers 200. Cleanup
// drains it with SIGTERM unless it is already gone, and prints its output
// if the test failed.
func startCoordinatorProc(t *testing.T, ctx context.Context, addr, dir string) *coordinatorProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-coordinator", "-addr", addr, "-node", "crash-co", "-state-dir", dir)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting coordinator: %v", err)
	}
	p := &coordinatorProc{cmd: cmd, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(p.exited) }()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		<-p.exited
		if t.Failed() {
			t.Logf("coordinator pid %d output:\n%s", cmd.Process.Pid, out.String())
		}
	})
	for {
		if resp, err := http.Get("http://" + addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		select {
		case <-p.exited:
			t.Fatalf("coordinator exited before it was ready")
		case <-ctx.Done():
			t.Fatalf("coordinator on %s never became ready", addr)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestCoordinatorSIGKILLRestart is the durability scenario with a real
// process death. Two jobs (HMC and NUTS) run on two in-process workers
// under a durable coordinator child process. Once both are two checkpoints
// in, the coordinator gets SIGKILL — no drain, nothing beyond what each
// acknowledged mutation already fsynced — and a new one starts on the same
// address and -state-dir. It must report replayed journal records, and
// both jobs must finish under their original IDs with draws bit-identical
// to an uninterrupted single-node run. The workers ride out the outage on
// their deadline-and-retry wire.
func TestCoordinatorSIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two coordinator processes; skipping in -short")
	}
	const checkpointEvery = 20
	specs := []serve.JobSpec{
		{Workload: "12cities", Scale: 0.25, Seed: 7, Iterations: 200, NoElide: true, Sampler: "hmc"},
		{Workload: "12cities", Scale: 0.25, Seed: 8, Iterations: 200, NoElide: true, Sampler: "nuts"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	ref := serve.NewServer(serve.Config{Workers: 2, CheckpointEvery: checkpointEvery})
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		job, err := ref.Submit(spec)
		if err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
		<-job.Done()
		raw := job.Raw()
		if raw == nil {
			t.Fatalf("reference job %d has no raw result (%s)", i, job.Status().Error)
		}
		want[i] = cluster.EncodeDraws(raw)
	}
	if err := ref.Shutdown(ctx); err != nil {
		t.Fatalf("reference shutdown: %v", err)
	}

	// A fixed address the restarted coordinator can bind again, so the
	// workers' coordinator URL survives the crash.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr
	dir := t.TempDir()

	first := startCoordinatorProc(t, ctx, addr, dir)
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
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if t.Failed() {
				w.Kill()
			}
		})
		workers = append(workers, w)
	}

	client := serve.NewClient(base)
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for past := 0; past < len(ids); {
		past = 0
		for _, id := range ids {
			st, err := client.Status(ctx, id)
			if err == nil && (st.Progress >= 2*checkpointEvery || st.State.Terminal()) {
				past++
			}
		}
		select {
		case <-ctx.Done():
			t.Fatal("timed out waiting for two checkpoints before the kill")
		case <-time.After(20 * time.Millisecond):
		}
	}

	if err := first.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL coordinator: %v", err)
	}
	<-first.exited
	if ws, ok := first.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signal() != syscall.SIGKILL {
		t.Fatalf("coordinator ended %v, want killed by SIGKILL", first.cmd.ProcessState)
	}

	startCoordinatorProc(t, ctx, addr, dir)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("capability probe: %v", err)
	}
	var capa serve.Capability
	err = json.NewDecoder(resp.Body).Decode(&capa)
	resp.Body.Close()
	if err != nil || capa.Journal == nil || capa.Journal.RecordsReplayed == 0 {
		t.Fatalf("restarted coordinator's journal report %+v (%v), want replayed records > 0", capa.Journal, err)
	}

	for i, id := range ids {
		final, err := client.Wait(ctx, id, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s after restart: %v", id, err)
		}
		if final.State != serve.Done {
			t.Fatalf("job %s ended %s (%s), want done", id, final.State, final.Error)
		}
		resp, err := http.Get(base + "/cluster/v1/jobs/" + id + "/draws")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("draws %s: %d, want 200", id, resp.StatusCode)
		}
		if !bytes.Equal(want[i], got) {
			t.Fatalf("%s (%s): draws differ from the uninterrupted reference (%d vs %d bytes)",
				id, specs[i].Sampler, len(got), len(want[i]))
		}
	}
	for _, w := range workers {
		if err := w.Stop(ctx); err != nil {
			t.Fatalf("worker drain: %v", err)
		}
	}
}
