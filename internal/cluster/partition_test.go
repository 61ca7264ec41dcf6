package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/fault"
	"bayessuite/internal/hw"
	"bayessuite/internal/serve"
)

// TestClusterFaultPartitionMatrix drives the partition-hardened wire
// through its acceptance matrix: for each sampler (HMC and NUTS) and
// each injected network fault kind, a chaos RoundTripper sits between
// the one worker and the coordinator, and the contract is the same as
// for worker loss — the job finishes with draws bit-identical to an
// uninterrupted single-node run. Drop exercises lost requests AND lost
// responses (the server-processed-but-unacknowledged case that forces
// idempotent uploads); dup exercises double delivery of the same
// sequence number; delay exercises reordering; partition severs the
// wire entirely until the coordinator has reaped the worker and
// requeued the job, then heals it and lets the same worker re-lease
// from the last streamed checkpoint.
func TestClusterFaultPartitionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("partition matrix is slow; skipping in -short")
	}
	const (
		checkpointEvery = 20
		iterations      = 160
	)
	kinds := []struct {
		kind fault.Kind
		arm  func(*fault.NetChaos)
	}{
		{fault.NetDrop, func(c *fault.NetChaos) { c.WithDrop(0.15) }},
		{fault.NetDup, func(c *fault.NetChaos) { c.WithDup(0.25) }},
		{fault.NetDelay, func(c *fault.NetChaos) { c.WithDelay(0.3, 30*time.Millisecond) }},
		{fault.NetPartition, func(c *fault.NetChaos) {}}, // orchestrated below
	}
	for _, sampler := range []string{"hmc", "nuts"} {
		for _, k := range kinds {
			sampler, k := sampler, k
			t.Run(fmt.Sprintf("%s-%s", sampler, k.kind), func(t *testing.T) {
				// Not parallel: heavy sampling in sibling subtests can starve
				// heartbeat goroutines past the liveness bound.
				spec := serve.JobSpec{
					Workload: "12cities", Sampler: sampler,
					Scale: 0.25, Seed: 53, Iterations: iterations, NoElide: true,
				}
				want := referenceDraws(t, spec, checkpointEvery)

				co, base := startTestCoordinator(t, cluster.CoordinatorConfig{
					HeartbeatTimeout: 1200 * time.Millisecond,
					ReapInterval:     50 * time.Millisecond,
				})
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
				defer cancel()

				chaos := fault.NewNetChaos(53)
				k.arm(chaos)
				w, err := cluster.NewWorker(cluster.WorkerConfig{
					Name:              "chaotic",
					Coordinator:       base,
					Platform:          hw.Skylake,
					HeartbeatInterval: 40 * time.Millisecond,
					HeartbeatTimeout:  time.Second,
					HTTP:              &http.Client{Transport: chaos},
					Engine:            serve.Config{CheckpointEvery: checkpointEvery},
				})
				if err != nil {
					t.Fatalf("worker: %v", err)
				}
				defer stopWorker(t, w)
				waitForWorkers(t, co, 1)

				client := serve.NewClient(base) // clients are not behind the chaos
				st, err := client.Submit(ctx, spec)
				if err != nil {
					t.Fatalf("submit: %v", err)
				}

				if k.kind == fault.NetPartition {
					// Let at least two checkpoints stream, then sever the wire
					// until the coordinator declares the worker dead and
					// requeues the job, then heal.
					for {
						cur, err := client.Status(ctx, st.ID)
						if err != nil {
							t.Fatalf("status: %v", err)
						}
						if cur.Progress >= 2*checkpointEvery {
							break
						}
						if cur.State.Terminal() {
							t.Fatalf("job reached %s before the partition", cur.State)
						}
						select {
						case <-ctx.Done():
							t.Fatal("timed out waiting for pre-partition checkpoints")
						case <-time.After(5 * time.Millisecond):
						}
					}
					chaos.Partition(true)
					for {
						fs := co.ServiceStats().(cluster.FleetStats)
						if fs.Reaped >= 1 {
							break
						}
						select {
						case <-ctx.Done():
							t.Fatal("timed out waiting for the partitioned worker to be reaped")
						case <-time.After(10 * time.Millisecond):
						}
					}
					chaos.Partition(false)
				}

				final, err := client.Wait(ctx, st.ID, 20*time.Millisecond)
				if err != nil {
					t.Fatalf("wait: %v", err)
				}
				if final.State != serve.Done {
					t.Fatalf("job ended %s (%s) under %s, want done", final.State, final.Error, k.kind)
				}
				got, err := co.Draws(st.ID)
				if err != nil {
					t.Fatalf("draws: %v", err)
				}
				if !cluster.DrawsEqual(want, got) {
					t.Fatalf("draws under %s differ from unfaulted reference (%d vs %d bytes)",
						k.kind, len(got), len(want))
				}
				if chaos.Fired(k.kind) == 0 {
					t.Fatalf("chaos never fired %s; the run proved nothing", k.kind)
				}
				if k.kind == fault.NetPartition {
					// The healed worker must have resumed from a streamed
					// checkpoint, not restarted the sampler from zero.
					if final.Attempts < 2 {
						t.Fatalf("job took %d lease(s) across the partition, want >=2", final.Attempts)
					}
					if final.ResumedFrom <= 0 || final.ResumedFrom%checkpointEvery != 0 {
						t.Fatalf("final lease resumed from %d, want a positive checkpoint boundary", final.ResumedFrom)
					}
				}
			})
		}
	}
}
