package fault

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"bayessuite/internal/ad"
	"bayessuite/internal/dist"
	"bayessuite/internal/kernels"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// gauss is a small diagonal Gaussian target (the fault matrix cares about
// control flow, not geometry).
type gauss struct{}

func (gauss) Dim() int { return 3 }
func (gauss) LogDensityGrad(q, grad []float64) float64 {
	lp := 0.0
	for i := range q {
		lp += -0.5 * q[i] * q[i]
		grad[i] = -q[i]
	}
	return lp
}
func (g gauss) LogDensity(q []float64) float64 {
	grad := make([]float64, 3)
	return g.LogDensityGrad(q, grad)
}

func target() mcmc.Target { return gauss{} }

const (
	chains     = 4
	iterations = 200
	faultChain = 1
	faultIter  = 120
	ckEvery    = 50
)

func baseConfig(kind mcmc.SamplerKind) mcmc.Config {
	return mcmc.Config{
		Chains:     chains,
		Iterations: iterations,
		Sampler:    kind,
		Seed:       9,
		Parallel:   true,
	}
}

func sameChainDraws(t *testing.T, label string, a, b *mcmc.Result) {
	t.Helper()
	for c := range a.Chains {
		sa, sb := a.Chains[c].Samples, b.Chains[c].Samples
		if sa.Len() != sb.Len() {
			t.Fatalf("%s: chain %d has %d vs %d draws", label, c, sa.Len(), sb.Len())
		}
		for i := 0; i < sa.Len(); i++ {
			for d := 0; d < sa.Dim(); d++ {
				if math.Float64bits(sa.At(i, d)) != math.Float64bits(sb.At(i, d)) {
					t.Fatalf("%s: chain %d draw %d param %d: %v vs %v",
						label, c, i, d, sa.At(i, d), sb.At(i, d))
				}
			}
		}
	}
}

// TestFaultMatrix runs every sampler against every injectable fault kind
// (run under -race by `make fault-matrix`). For the quarantining kinds it
// checks that the surviving chains complete their full budget, the fault
// surfaces as a typed ChainFault at the injection site, and a run resumed
// from the last pre-fault checkpoint reproduces the faulted run draw for
// draw — fault included.
func TestFaultMatrix(t *testing.T) {
	samplers := []mcmc.SamplerKind{mcmc.MetropolisHastings, mcmc.HMC, mcmc.NUTS}
	kinds := []Kind{Panic, NonFinite, Slow, Cancel, WorkerLoss}
	for _, kind := range samplers {
		kind := kind
		for _, fk := range kinds {
			fk := fk
			t.Run(kind.String()+"/"+fk.String(), func(t *testing.T) {
				t.Parallel()
				switch fk {
				case Panic, NonFinite:
					testQuarantine(t, kind, fk)
				case Slow:
					testSlow(t, kind)
				case Cancel:
					testCancel(t, kind)
				case WorkerLoss:
					testWorkerLoss(t, kind)
				}
			})
		}
	}
}

// testWorkerLoss: a WorkerLoss injection invokes the kill function at
// most once no matter how many injection sites fire — the engine-level
// contract the cluster worker's Kill (abrupt death: cancel everything,
// upload nothing) relies on. The kill here cancels the run, standing in
// for the worker process dying under the sampler.
func testWorkerLoss(t *testing.T, kind mcmc.SamplerKind) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var kills int
	inj := New(7).
		Schedule(faultChain, faultIter, WorkerLoss).
		Schedule(faultChain+1, faultIter, WorkerLoss)
	inj.WithWorkerKill(func() {
		kills++
		cancel()
	})
	cfg := baseConfig(kind)
	cfg.StopRule = nil
	cfg.Progress = func(int) {} // observed like a served job; chains end level after the kill on every run
	cfg.FaultHook = inj.Hook
	res := mcmc.RunContext(ctx, cfg, target)

	if kills != 1 {
		t.Fatalf("worker kill invoked %d times, want exactly 1 (killOnce)", kills)
	}
	if fired := inj.Fired(WorkerLoss); fired < 1 {
		t.Fatalf("worker-loss fired %d times, want >=1", fired)
	}
	if !res.Interrupted {
		t.Fatal("killed run not marked interrupted")
	}
	if len(res.Faults()) != 0 {
		t.Fatalf("worker loss must not quarantine chains (the whole node died): %v", res.Faults())
	}
	if res.Iterations < faultIter || res.Iterations >= iterations {
		t.Errorf("Iterations = %d, want in [%d, %d)", res.Iterations, faultIter, iterations)
	}
}

// testQuarantine: one chain faults mid-run; the rest must finish, and the
// checkpoint-resume replay must be bit-identical.
func testQuarantine(t *testing.T, kind mcmc.SamplerKind, fk Kind) {
	newInjector := func() *Injector { return New(7).Schedule(faultChain, faultIter, fk) }

	var cks []*mcmc.Checkpoint
	cfg := baseConfig(kind)
	cfg.CheckpointEvery = ckEvery
	cfg.CheckpointSink = func(ck *mcmc.Checkpoint) { cks = append(cks, ck) }
	inj := newInjector()
	cfg.FaultHook = inj.Hook
	res := mcmc.Run(cfg, target)

	if got := inj.Fired(fk); got != 1 {
		t.Fatalf("injector fired %d times, want 1", got)
	}
	f := res.Chains[faultChain].Fault
	if f == nil {
		t.Fatalf("faulted chain carries no ChainFault")
	}
	wantKind := mcmc.FaultNonFinite
	if fk == Panic {
		wantKind = mcmc.FaultPanic
	}
	if f.Kind != wantKind || f.Chain != faultChain || f.Iteration != faultIter {
		t.Fatalf("fault = %+v, want kind %v chain %d iteration %d", f, wantKind, faultChain, faultIter)
	}
	if f.Msg == "" {
		t.Errorf("fault has no message")
	}
	if fk == Panic {
		if !strings.Contains(f.Msg, "injected panic") {
			t.Errorf("panic text not captured: %q", f.Msg)
		}
		if f.Stack == "" {
			t.Errorf("panic fault has no stack")
		}
	}
	// The faulted chain keeps its clean prefix; survivors run to budget.
	if n := res.Chains[faultChain].Samples.Len(); n != faultIter {
		t.Errorf("faulted chain retained %d draws, want %d", n, faultIter)
	}
	for c, ch := range res.Chains {
		if c == faultChain {
			continue
		}
		if ch.Fault != nil {
			t.Errorf("chain %d spuriously faulted: %v", c, ch.Fault)
		}
		if ch.Samples.Len() != iterations {
			t.Errorf("surviving chain %d has %d draws, want %d", c, ch.Samples.Len(), iterations)
		}
	}
	if res.Iterations != iterations {
		t.Errorf("Iterations = %d, want %d (survivors define the aligned count)", res.Iterations, iterations)
	}
	if len(res.HealthyChains()) != chains-1 || len(res.Faults()) != 1 {
		t.Errorf("healthy=%d faults=%d", len(res.HealthyChains()), len(res.Faults()))
	}
	// Checkpoints stop at the last all-healthy boundary before the fault.
	if len(cks) == 0 {
		t.Fatalf("no checkpoints captured")
	}
	last := cks[len(cks)-1]
	if last.Iteration != 100 {
		t.Fatalf("last checkpoint at %d, want 100 (the boundary before the fault)", last.Iteration)
	}

	// Resume from the last pre-fault checkpoint with the same injection
	// plan: the replay must reproduce the faulted run bit for bit,
	// including the fault itself.
	rcfg := baseConfig(kind)
	rcfg.ResumeFrom = last
	rinj := newInjector()
	rcfg.FaultHook = rinj.Hook
	replay := mcmc.Run(rcfg, target)
	sameChainDraws(t, "resume replay", res, replay)
	rf := replay.Chains[faultChain].Fault
	if rf == nil || rf.Kind != wantKind || rf.Iteration != faultIter {
		t.Errorf("replay fault = %+v, want kind %v at %d", rf, wantKind, faultIter)
	}
}

// testSlow: slow-iteration injection must not change results, only pace.
func testSlow(t *testing.T, kind mcmc.SamplerKind) {
	ref := mcmc.Run(baseConfig(kind), target)

	inj := New(7).WithRandom(0.02, Slow, chains).WithSlow(0) // count-only stall
	cfg := baseConfig(kind)
	cfg.FaultHook = inj.Hook
	res := mcmc.Run(cfg, target)

	if inj.Injected() == 0 {
		t.Fatalf("random injection never fired")
	}
	if len(res.Faults()) != 0 {
		t.Fatalf("slow iterations must not quarantine: %v", res.Faults())
	}
	sameChainDraws(t, "slow", ref, res)
	if res.Iterations != iterations || res.Interrupted {
		t.Errorf("iterations %d interrupted %v", res.Iterations, res.Interrupted)
	}
}

// testCancel: a fault-hook-tripped context cancel interrupts the run
// cooperatively — completed draws retained, no chain faulted.
func testCancel(t *testing.T, kind mcmc.SamplerKind) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := New(7).Schedule(faultChain, faultIter, Cancel).WithCancel(cancel)
	cfg := baseConfig(kind)
	cfg.StopRule = nil
	cfg.Progress = func(int) {} // observed like a served job; chains end level after a cancel on every run
	cfg.FaultHook = inj.Hook
	res := mcmc.RunContext(ctx, cfg, target)

	if inj.Fired(Cancel) != 1 {
		t.Fatalf("cancel fired %d times", inj.Fired(Cancel))
	}
	if !res.Interrupted {
		t.Fatalf("canceled run not marked interrupted")
	}
	if len(res.Faults()) != 0 {
		t.Fatalf("cancellation must not quarantine: %v", res.Faults())
	}
	if res.Iterations < faultIter || res.Iterations >= iterations {
		t.Errorf("Iterations = %d, want in [%d, %d)", res.Iterations, faultIter, iterations)
	}
	for c, ch := range res.Chains {
		if ch.Samples.Len() < res.Iterations {
			t.Errorf("chain %d has %d draws < aligned %d", c, ch.Samples.Len(), res.Iterations)
		}
	}
}

// TestAllChainsFault: when every chain is quarantined the run ends early
// and reports the aligned prefix every chain retained.
func TestAllChainsFault(t *testing.T) {
	inj := New(3)
	for c := 0; c < chains; c++ {
		inj.Schedule(c, 110+c, NonFinite)
	}
	cfg := baseConfig(mcmc.NUTS)
	cfg.StopRule = neverStop{}
	cfg.FaultHook = inj.Hook
	res := mcmc.Run(cfg, target)

	if len(res.Faults()) != chains || len(res.HealthyChains()) != 0 {
		t.Fatalf("faults=%d healthy=%d", len(res.Faults()), len(res.HealthyChains()))
	}
	if res.Iterations != 110 {
		t.Errorf("Iterations = %d, want 110 (smallest retained prefix)", res.Iterations)
	}
	for c, ch := range res.Chains {
		if ch.Fault == nil || ch.Samples.Len() != 110+c {
			t.Errorf("chain %d: fault %v len %d", c, ch.Fault, ch.Samples.Len())
		}
	}
}

type neverStop struct{}

func (neverStop) ShouldStop(chains []*mcmc.Samples, iter int) bool { return false }

// TestInjectorDeterminism: the probabilistic plan is a pure function of
// the seed — two injectors with the same seed fire identically.
func TestInjectorDeterminism(t *testing.T) {
	fire := func() []bool {
		in := New(42).WithRandom(0.1, NonFinite, 2)
		var out []bool
		for iter := 0; iter < 100; iter++ {
			for c := 0; c < 2; c++ {
				out = append(out, in.Hook(c, iter) == mcmc.FaultActNonFinite)
			}
		}
		return out
	}
	a, b := fire(), fire()
	n := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("injection %d differs", i)
		}
		if a[i] {
			n++
		}
	}
	if n == 0 {
		t.Fatalf("rate 0.1 over 200 sites never fired")
	}
}

// batchGLM is a small batchable normal-identity GLM so the fault matrix
// can cover the batched gradient path: faults injected while
// chains share fused data sweeps must quarantine exactly as on the
// per-chain path, with every healthy chain's draws untouched.
type batchGLM struct {
	p, g int
	kern *kernels.NormalIDGLM
}

func newBatchGLM(seed uint64) *batchGLM {
	const n, p, g = 400, 2, 5
	r := rng.New(seed)
	x := make([]float64, n*p)
	y := make([]float64, n)
	grp := make([]int, n)
	for i := range x {
		x[i] = r.Norm()
	}
	for i := range y {
		y[i] = r.Norm()
		grp[i] = r.Intn(g)
	}
	return &batchGLM{p: p, g: g, kern: kernels.NewNormalIDGLM(y, x, p, nil, grp, g)}
}

func (m *batchGLM) Name() string { return "batch-glm-fault" }
func (m *batchGLM) Dim() int     { return m.p + m.g + 1 }

func (m *batchGLM) logPost(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	b := model.NewBuilder(t)
	sigma := b.Positive(q[m.p+m.g])
	b.Add(dist.NewNormal(0, 1).LPDFVarData(t, q))
	beta := q[:m.p]
	u := q[m.p : m.p+m.g]
	if pre != nil {
		b.Add(m.kern.LogLikPre(t, beta, u, sigma, &pre[0]))
	} else {
		b.Add(m.kern.LogLik(t, beta, u, sigma))
	}
	return b.Result()
}

func (m *batchGLM) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var { return m.logPost(t, q, nil) }

func (m *batchGLM) BatchKernels() []kernels.Batcher { return []kernels.Batcher{m.kern} }

func (m *batchGLM) KernelParams(q []float64, dst [][]float64) {
	d := dst[0]
	copy(d[:m.p+m.g], q)
	d[m.p+m.g] = math.Exp(q[m.p+m.g]) + 0
}

func (m *batchGLM) LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	return m.logPost(t, q, pre)
}

// TestFaultMatrixBatched extends the matrix with the batched column:
// every injectable fault kind against the gradient samplers on a
// run whose chains coalesce gradients into fused sweeps. Quarantining
// kinds must (a) produce draws bit-identical to the per-chain segmented run
// under the same injection plan — batch membership never perturbs
// results, even as the faulting chain drops out of the rendezvous mid-run
// — and (b) replay bit-identically when resumed from the last pre-fault
// checkpoint on the batched path. Slow iterations, cancels and worker
// losses must behave exactly as they do without the coalescer. The
// runner builds the coalescer only on one core, so the column runs there.
func TestFaultMatrixBatched(t *testing.T) {
	pinOneProc(t)
	for _, kind := range []mcmc.SamplerKind{mcmc.HMC, mcmc.NUTS} {
		kind := kind
		for _, fk := range []Kind{Panic, NonFinite, Slow, Cancel, WorkerLoss} {
			fk := fk
			t.Run(kind.String()+"/"+fk.String(), func(t *testing.T) {
				t.Parallel()
				switch fk {
				case Panic, NonFinite:
					testBatchedQuarantine(t, kind, fk)
				case Slow:
					testBatchedSlow(t, kind)
				case Cancel:
					testBatchedCancel(t, kind)
				case WorkerLoss:
					testBatchedWorkerLoss(t, kind)
				}
			})
		}
	}
}

// pinOneProc runs the rest of t at GOMAXPROCS 1, the only setting at
// which the runner builds a coalescer, and restores the previous setting
// once t and its parallel subtests are done.
func pinOneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// batchCount is a run's own view of its fused gradient path: BatchGrad
// calls and the chain requests (rows) they carried.
type batchCount struct{ calls, rows atomic.Int64 }

// batchedTargets wires cfg's fused gradient path over a fresh evaluator
// for m, counting what goes through it.
func batchedTargets(t *testing.T, cfg *mcmc.Config, m *batchGLM) (mcmc.TargetFactory, *batchCount) {
	t.Helper()
	be, ok := model.NewBatchEvaluator(m, chains)
	if !ok {
		t.Fatal("batchGLM is not batchable")
	}
	n := new(batchCount)
	cfg.BatchGrad = func(qs, grads [][]float64, lps []float64) {
		n.calls.Add(1)
		for _, q := range qs {
			if q != nil {
				n.rows.Add(1)
			}
		}
		be.LogDensityGradBatch(qs, grads, lps)
	}
	next := 0
	return func() mcmc.Target {
		c := next
		next++
		return be.Chain(c)
	}, n
}

func testBatchedQuarantine(t *testing.T, kind mcmc.SamplerKind, fk Kind) {
	m := newBatchGLM(5)
	run := func(batched bool, resume *mcmc.Checkpoint, sink func(*mcmc.Checkpoint)) *mcmc.Result {
		cfg := baseConfig(kind)
		cfg.CheckpointEvery = ckEvery
		cfg.CheckpointSink = sink
		cfg.ResumeFrom = resume
		inj := New(7).Schedule(faultChain, faultIter, fk)
		cfg.FaultHook = inj.Hook
		var factory mcmc.TargetFactory
		if batched {
			factory, _ = batchedTargets(t, &cfg, m)
		} else {
			factory = func() mcmc.Target { return model.NewEvaluator(m) }
		}
		return mcmc.Run(cfg, factory)
	}

	ref := run(false, nil, nil)
	var cks []*mcmc.Checkpoint
	res := run(true, nil, func(ck *mcmc.Checkpoint) { cks = append(cks, ck) })
	sameChainDraws(t, "batched vs per-chain faulted run", ref, res)

	f := res.Chains[faultChain].Fault
	wantKind := mcmc.FaultNonFinite
	if fk == Panic {
		wantKind = mcmc.FaultPanic
	}
	if f == nil || f.Kind != wantKind || f.Iteration != faultIter {
		t.Fatalf("batched fault = %+v, want kind %v at iteration %d", f, wantKind, faultIter)
	}
	if n := res.Chains[faultChain].Samples.Len(); n != faultIter {
		t.Errorf("faulted chain retained %d draws, want %d", n, faultIter)
	}
	if len(res.HealthyChains()) != chains-1 {
		t.Errorf("healthy chains %d, want %d", len(res.HealthyChains()), chains-1)
	}

	if len(cks) == 0 {
		t.Fatal("no checkpoints captured on the batched run")
	}
	replay := run(true, cks[len(cks)-1], nil)
	sameChainDraws(t, "batched resume replay", res, replay)
}

// coalesced fails a run that never went through the gradient coalescer,
// or whose fused sweeps carried more rows than its chains demanded (a
// one-row batch is served by the chain's own evaluator, so fewer is
// fine).
func coalesced(t *testing.T, res *mcmc.Result, n *batchCount) {
	t.Helper()
	if n.calls.Load() == 0 {
		t.Fatal("batched run never called BatchGrad")
	}
	if rows := n.rows.Load(); rows > res.TotalWork() {
		t.Fatalf("fused sweeps carried %d rows for %d demanded gradients", rows, res.TotalWork())
	}
}

// testBatchedSlow: slow injection on the batched path changes pace only —
// draws stay bit-identical to a clean per-chain run.
func testBatchedSlow(t *testing.T, kind mcmc.SamplerKind) {
	m := newBatchGLM(5)
	ref := mcmc.Run(baseConfig(kind), func() mcmc.Target { return model.NewEvaluator(m) })

	inj := New(7).WithRandom(0.02, Slow, chains).WithSlow(0) // count-only stall
	cfg := baseConfig(kind)
	cfg.Progress = func(int) {} // observed like a served job; any parallel run on one core engages the coalescer
	cfg.FaultHook = inj.Hook
	factory, n := batchedTargets(t, &cfg, m)
	res := mcmc.Run(cfg, factory)

	if inj.Injected() == 0 {
		t.Fatalf("random injection never fired")
	}
	if len(res.Faults()) != 0 {
		t.Fatalf("slow iterations must not quarantine: %v", res.Faults())
	}
	sameChainDraws(t, "batched slow", ref, res)
	coalesced(t, res, n)
}

// testBatchedCancel: a cooperative cancel mid-round on the batched path
// interrupts cleanly — completed draws retained, nothing quarantined.
func testBatchedCancel(t *testing.T, kind mcmc.SamplerKind) {
	m := newBatchGLM(5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := New(7).Schedule(faultChain, faultIter, Cancel).WithCancel(cancel)
	cfg := baseConfig(kind)
	cfg.Progress = func(int) {} // observed like a served job; chains end level after a cancel on every run
	cfg.FaultHook = inj.Hook
	factory, n := batchedTargets(t, &cfg, m)
	res := mcmc.RunContext(ctx, cfg, factory)

	if inj.Fired(Cancel) != 1 {
		t.Fatalf("cancel fired %d times", inj.Fired(Cancel))
	}
	if !res.Interrupted {
		t.Fatal("canceled run not marked interrupted")
	}
	if len(res.Faults()) != 0 {
		t.Fatalf("cancellation must not quarantine: %v", res.Faults())
	}
	if res.Iterations < faultIter || res.Iterations >= iterations {
		t.Errorf("Iterations = %d, want in [%d, %d)", res.Iterations, faultIter, iterations)
	}
	coalesced(t, res, n)
}

// testBatchedWorkerLoss: an abrupt kill under the batched sampler honors
// the kill-once contract and quarantines nothing.
func testBatchedWorkerLoss(t *testing.T, kind mcmc.SamplerKind) {
	m := newBatchGLM(5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var kills int
	inj := New(7).
		Schedule(faultChain, faultIter, WorkerLoss).
		Schedule(faultChain+1, faultIter, WorkerLoss)
	inj.WithWorkerKill(func() {
		kills++
		cancel()
	})
	cfg := baseConfig(kind)
	cfg.Progress = func(int) {} // observed like a served job; chains end level after the kill on every run
	cfg.FaultHook = inj.Hook
	factory, n := batchedTargets(t, &cfg, m)
	res := mcmc.RunContext(ctx, cfg, factory)

	if kills != 1 {
		t.Fatalf("worker kill invoked %d times, want exactly 1 (killOnce)", kills)
	}
	if !res.Interrupted {
		t.Fatal("killed run not marked interrupted")
	}
	if len(res.Faults()) != 0 {
		t.Fatalf("worker loss must not quarantine chains (the whole node died): %v", res.Faults())
	}
	coalesced(t, res, n)
}
