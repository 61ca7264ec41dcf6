package fault

import (
	"context"
	"testing"
	"time"

	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/sched"
	"bayessuite/internal/serve"
	"bayessuite/internal/workloads"
)

// TestFaultMatrixBatchedSpec is the service column of the batched matrix:
// every injectable fault kind against a batchable job submitted as a
// serve.JobSpec, so the faults meet the chains the way a bayesd node
// wires them — workload built from the spec, one evaluator per chain,
// status and fault records — rather than a hand-built mcmc.Config. The
// assertions are the ones TestFaultMatrixBatched makes on the mcmc path,
// read off the job, and like it at GOMAXPROCS 1, where a served job's
// chains timeshare one core.
func TestFaultMatrixBatchedSpec(t *testing.T) {
	pinOneProc(t)
	for _, kind := range []mcmc.SamplerKind{mcmc.HMC, mcmc.NUTS} {
		kind := kind
		for _, fk := range []Kind{Panic, NonFinite, Slow, Cancel, WorkerLoss} {
			fk := fk
			t.Run(kind.String()+"/"+fk.String(), func(t *testing.T) {
				t.Parallel()
				switch fk {
				case Panic, NonFinite:
					testSpecQuarantine(t, kind, fk)
				case Slow:
					testSpecSlow(t, kind)
				case Cancel:
					testSpecInterrupt(t, kind, Cancel)
				case WorkerLoss:
					testSpecInterrupt(t, kind, WorkerLoss)
				}
			})
		}
	}
}

// batchedSpec is a batchable service job with the matrix's shape.
func batchedSpec(kind mcmc.SamplerKind) serve.JobSpec {
	return serve.JobSpec{Workload: "12cities", Scale: 0.1, Iterations: iterations,
		Chains: chains, Seed: 9, NoElide: true, Sampler: kind.String()}
}

// specPlan builds the injector for one sampling attempt of job on s.
type specPlan func(s *serve.Server, job *serve.Job) *Injector

// serveSpec runs spec, resumed from ck when non-nil, on a fresh one-worker
// service whose sampling attempts run under plan (none when nil). It
// returns the finished job, the injector of its last attempt and every
// checkpoint the job took.
func serveSpec(t *testing.T, spec serve.JobSpec, ck *mcmc.Checkpoint, plan specPlan) (*serve.Job, *Injector, []*mcmc.Checkpoint) {
	t.Helper()
	var (
		s   *serve.Server
		inj *Injector
		cks []*mcmc.Checkpoint
	)
	// Both callbacks run on the job's worker before the job's done
	// channel closes, so the test reads inj and cks after <-job.Done().
	cfg := serve.Config{
		Workers: 1, QueueCap: 1,
		Predictor:    &sched.Predictor{Slope: 0.025, Intercept: 0.3, FitFloor: 1, ThresholdKB: 110},
		OnCheckpoint: func(_ *serve.Job, c *mcmc.Checkpoint) { cks = append(cks, c) },
	}
	if plan != nil {
		cfg.InjectFaultHook = func(job *serve.Job, _ int) func(chain, iter int) mcmc.FaultAction {
			inj = plan(s, job)
			return inj.Hook
		}
	}
	s = serve.NewServer(cfg)
	job, err := s.SubmitWithCheckpoint(spec, ck)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish (state %s)", job.ID(), job.Status().State)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	return job, inj, cks
}

// perChainReference runs spec's sampling with per-chain (unbatched)
// gradients, segmented at every CheckInterval, under hook.
func perChainReference(t *testing.T, spec serve.JobSpec, kind mcmc.SamplerKind, hook func(chain, iter int) mcmc.FaultAction) *mcmc.Result {
	t.Helper()
	_, budget, err := serve.Normalize(spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.New(spec.Workload, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcmc.Config{
		Chains: spec.Chains, Iterations: budget, Sampler: kind, Seed: spec.Seed,
		Parallel: true, Progress: func(int) {}, FaultHook: hook,
	}
	return mcmc.Run(cfg, func() mcmc.Target { return model.NewEvaluator(w.Model) })
}

// testSpecQuarantine: a quarantining fault in one chain of a batchable job
// leaves the job done with that chain's typed fault on its status, draws
// bit-identical to the per-chain run under the same plan, and a job
// resumed from its last checkpoint replays it draw for draw.
func testSpecQuarantine(t *testing.T, kind mcmc.SamplerKind, fk Kind) {
	spec := batchedSpec(kind)
	plan := func(*serve.Server, *serve.Job) *Injector {
		return New(7).Schedule(faultChain, faultIter, fk)
	}
	job, _, cks := serveSpec(t, spec, nil, plan)
	st := job.Status()
	if st.State != serve.Done {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	wantKind := mcmc.FaultNonFinite
	if fk == Panic {
		wantKind = mcmc.FaultPanic
	}
	if len(st.ChainFaults) != 1 {
		t.Fatalf("chain faults %+v, want exactly one", st.ChainFaults)
	}
	if f := st.ChainFaults[0]; f.Chain != faultChain || f.Kind != wantKind.String() || f.Iteration != faultIter {
		t.Fatalf("chain fault %+v, want chain %d kind %v at iteration %d", f, faultChain, wantKind, faultIter)
	}

	res := job.Raw()
	ref := perChainReference(t, spec, kind, plan(nil, nil).Hook)
	sameChainDraws(t, "served batchable vs per-chain faulted run", ref, res)
	if len(res.HealthyChains()) != chains-1 {
		t.Errorf("healthy chains %d, want %d", len(res.HealthyChains()), chains-1)
	}

	if len(cks) == 0 {
		t.Fatal("batchable job took no checkpoints")
	}
	replay, _, _ := serveSpec(t, spec, cks[len(cks)-1], plan)
	sameChainDraws(t, "served batchable resume replay", res, replay.Raw())
}

// testSpecSlow: slow iterations in a batchable job change pace only — the
// job finishes clean with draws bit-identical to an uninjected per-chain
// run.
func testSpecSlow(t *testing.T, kind mcmc.SamplerKind) {
	spec := batchedSpec(kind)
	job, inj, _ := serveSpec(t, spec, nil, func(*serve.Server, *serve.Job) *Injector {
		return New(7).WithRandom(0.02, Slow, chains).WithSlow(0) // count-only stall
	})
	st := job.Status()
	if inj.Injected() == 0 {
		t.Fatal("random injection never fired")
	}
	if st.State != serve.Done || len(st.ChainFaults) != 0 {
		t.Fatalf("job ended %s with faults %+v, want done and none", st.State, st.ChainFaults)
	}
	sameChainDraws(t, "served batchable slow", perChainReference(t, spec, kind, nil), job.Raw())
}

// testSpecInterrupt: a client cancel, or a worker loss (the kill stands
// in for the node dying under the job), mid-round in a batchable job
// interrupts it once — a second kill site does not fire again — with
// completed draws retained and nothing quarantined.
func testSpecInterrupt(t *testing.T, kind mcmc.SamplerKind, fk Kind) {
	var kills int
	job, inj, _ := serveSpec(t, batchedSpec(kind), nil, func(s *serve.Server, job *serve.Job) *Injector {
		stop := func() {
			kills++
			s.Cancel(job.ID())
		}
		if fk == Cancel {
			return New(7).Schedule(faultChain, faultIter, Cancel).WithCancel(stop)
		}
		return New(7).
			Schedule(faultChain, faultIter, WorkerLoss).
			Schedule(faultChain+1, faultIter, WorkerLoss).
			WithWorkerKill(stop)
	})
	st := job.Status()
	if kills != 1 || inj.Fired(fk) == 0 {
		t.Fatalf("%v stopped the job %d times (fired %d), want exactly once", fk, kills, inj.Fired(fk))
	}
	if st.State != serve.Canceled || !st.Interrupted {
		t.Fatalf("job ended %s (interrupted %v), want canceled and interrupted", st.State, st.Interrupted)
	}
	if len(st.ChainFaults) != 0 {
		t.Fatalf("%v must not quarantine chains: %+v", fk, st.ChainFaults)
	}
	if st.Progress < faultIter || st.Progress >= iterations {
		t.Errorf("progress %d, want in [%d, %d)", st.Progress, faultIter, iterations)
	}
}
