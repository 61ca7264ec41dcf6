package cluster_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/fault"
	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/serve"
)

// referenceDraws runs spec uninterrupted on a single-node server and
// returns its encoded raw draws — the bit-identity oracle every
// migration test compares against.
func referenceDraws(t *testing.T, spec serve.JobSpec, checkpointEvery int) []byte {
	t.Helper()
	ref := serve.NewServer(serve.Config{Workers: 1, CheckpointEvery: checkpointEvery})
	job, err := ref.Submit(spec)
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	<-job.Done()
	raw := job.Raw()
	if raw == nil {
		t.Fatalf("reference run has no raw result (state %s)", job.Status().State)
	}
	draws := cluster.EncodeDraws(raw)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := ref.Shutdown(ctx); err != nil {
		t.Fatalf("reference shutdown: %v", err)
	}
	return draws
}

// waitForReap polls fleet stats until the coordinator has reaped a
// worker and requeued its job.
func waitForReap(t *testing.T, ctx context.Context, co *cluster.Coordinator) {
	t.Helper()
	for {
		fs := co.ServiceStats().(cluster.FleetStats)
		if fs.Reaped >= 1 && fs.Migrations >= 1 {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("timed out waiting for worker loss (reaped %d, migrations %d)", fs.Reaped, fs.Migrations)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestClusterFaultWorkerLossMigration is the PR's acceptance scenario as
// a matrix: for each sampler (HMC and NUTS) and each gradient path
// (12cities exposes batched kernels, disease does not), a worker is
// killed mid-run by an injected WorkerLoss fault after checkpoints have
// streamed to the coordinator; the coordinator reaps it by heartbeat
// silence and requeues the job from its last snapshot; a rescue worker —
// started only after the reap, so the resumed attempt cannot have begun
// anywhere earlier — finishes it. The migrated draws must be bit-
// identical to the same spec run uninterrupted on a single node, and the
// final lease must have resumed from a positive iteration (bit-identity
// alone cannot distinguish a checkpoint resume from a deterministic
// restart).
func TestClusterFaultWorkerLossMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("migration matrix is slow; skipping in -short")
	}
	const (
		checkpointEvery = 20
		killAtIter      = 60
		iterations      = 160
	)
	cases := []struct {
		name     string
		workload string
		sampler  string
		batched  bool
	}{
		{"hmc-batched", "12cities", "hmc", true},
		{"hmc-unbatched", "disease", "hmc", false},
		{"nuts-batched", "12cities", "nuts", true},
		{"nuts-unbatched", "disease", "nuts", false},
		// A collapsed kernel (build-time counts, no data sweep) crossing a
		// checkpoint and a worker migration.
		{"nuts-collapsed", "survival", "nuts", false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Deliberately not parallel: heavy sampling in sibling subtests
			// can starve a worker's heartbeat goroutine past the liveness
			// bound and get the healthy rescue worker falsely reaped.
			if tc.batched {
				// Batchable jobs also migrate at one core: their draws
				// must not depend on GOMAXPROCS.
				prev := runtime.GOMAXPROCS(1)
				t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			}
			spec := serve.JobSpec{
				Workload: tc.workload, Sampler: tc.sampler,
				Scale: 0.25, Seed: 17, Iterations: iterations, NoElide: true,
			}
			want := referenceDraws(t, spec, checkpointEvery)

			co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
				HeartbeatTimeout: time.Second,
				ReapInterval:     100 * time.Millisecond,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()

			// Worker A dies at (chain 0, iter 60); the iteration-20 snapshot
			// is on the coordinator for certain and the iteration-40 one
			// unless its upload was still in flight (the checkpoint stream
			// runs at most one boundary behind the sampler).
			inj := fault.New(17).Schedule(0, killAtIter, fault.WorkerLoss)
			w1 := startTestWorker(t, base, "doomed", hw.Skylake, serve.Config{
				CheckpointEvery: checkpointEvery,
				InjectFaultHook: func(job *serve.Job, attempt int) func(chain, iter int) mcmc.FaultAction {
					return inj.Hook
				},
			})
			inj.WithWorkerKill(func() { w1.Kill() })

			client := serve.NewClient(base)
			st, err := client.Submit(ctx, spec)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			waitForReap(t, ctx, co)

			w2 := startTestWorker(t, base, "rescue", hw.Broadwell, serve.Config{
				CheckpointEvery: checkpointEvery,
			})
			final, err := client.Wait(ctx, st.ID, 20*time.Millisecond)
			if err != nil {
				t.Fatalf("wait: %v", err)
			}
			if final.State != serve.Done {
				t.Fatalf("migrated job ended %s (%s), want done", final.State, final.Error)
			}
			if final.Node != w2.Name() {
				t.Fatalf("migrated job finished on %q, want %q", final.Node, w2.Name())
			}
			if final.Attempts < 2 {
				t.Fatalf("job took %d lease(s), want >=2", final.Attempts)
			}
			if final.ResumedFrom <= 0 || final.ResumedFrom%checkpointEvery != 0 {
				t.Fatalf("final lease resumed from iteration %d, want a positive checkpoint boundary", final.ResumedFrom)
			}
			got, err := co.Draws(st.ID)
			if err != nil {
				t.Fatalf("draws: %v", err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("migrated draws differ from uninterrupted reference (%d vs %d bytes)", len(got), len(want))
			}
			if _, err := cluster.DecodeDraws(got); err != nil {
				t.Fatalf("decoding migrated draws: %v", err)
			}
			stopWorker(t, w2)
		})
	}
}

// TestClusterFaultWorkerLossBeforeCheckpointResumeFromZero kills the
// worker before the first checkpoint boundary: there is nothing to
// resume from, so the migrated attempt restarts from iteration 0 and —
// because sampling is deterministic in the spec — still reproduces the
// reference draws exactly.
func TestClusterFaultWorkerLossBeforeCheckpointResumeFromZero(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	spec := serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: 29, Iterations: 120, NoElide: true,
	}
	const checkpointEvery = 50 // first boundary after the kill point
	want := referenceDraws(t, spec, checkpointEvery)

	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
		HeartbeatTimeout: 600 * time.Millisecond,
		ReapInterval:     100 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	inj := fault.New(29).Schedule(0, 10, fault.WorkerLoss)
	w1 := startTestWorker(t, base, "doomed", hw.Skylake, serve.Config{
		CheckpointEvery: checkpointEvery,
		InjectFaultHook: func(job *serve.Job, attempt int) func(chain, iter int) mcmc.FaultAction {
			return inj.Hook
		},
	})
	inj.WithWorkerKill(func() { w1.Kill() })

	client := serve.NewClient(base)
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitForReap(t, ctx, co)

	w2 := startTestWorker(t, base, "rescue", hw.Broadwell, serve.Config{CheckpointEvery: checkpointEvery})
	final, err := client.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != serve.Done {
		t.Fatalf("migrated job ended %s (%s), want done", final.State, final.Error)
	}
	if final.ResumedFrom != 0 {
		t.Fatalf("resumed from iteration %d, want 0 (no checkpoint existed)", final.ResumedFrom)
	}
	got, err := co.Draws(st.ID)
	if err != nil {
		t.Fatalf("draws: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("restarted draws differ from reference (%d vs %d bytes)", len(got), len(want))
	}
	stopWorker(t, w2)
}

// TestClusterFaultMigrationBudgetExhausted submits to a fleet whose
// MaxMigrations is -1 (disabled): the first worker loss must fail the
// job rather than requeue it forever.
func TestClusterFaultMigrationBudgetExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipping in -short")
	}
	co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
		HeartbeatTimeout: 600 * time.Millisecond,
		ReapInterval:     100 * time.Millisecond,
		MaxMigrations:    -1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	inj := fault.New(31).Schedule(0, 30, fault.WorkerLoss)
	w1 := startTestWorker(t, base, "doomed", hw.Skylake, serve.Config{
		CheckpointEvery: 20,
		InjectFaultHook: func(job *serve.Job, attempt int) func(chain, iter int) mcmc.FaultAction {
			return inj.Hook
		},
	})
	inj.WithWorkerKill(func() { w1.Kill() })

	client := serve.NewClient(base)
	st, err := client.Submit(ctx, serve.JobSpec{
		Workload: "12cities", Scale: 0.25, Seed: 31, Iterations: 200, NoElide: true,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := client.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != serve.Failed {
		t.Fatalf("job ended %s, want failed (migration disabled)", final.State)
	}
	fs := co.ServiceStats().(cluster.FleetStats)
	if fs.Reaped < 1 {
		t.Fatalf("reaped %d workers, want >=1", fs.Reaped)
	}
}
