package mcmc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"bayessuite/internal/rng"
)

// TargetFactory builds one Target per chain. Targets hold mutable tape
// state, so each chain needs its own instance.
type TargetFactory func() Target

// Run executes a multi-chain MCMC run with the given configuration. It is
// RunContext with a background (never-canceled) context.
func Run(cfg Config, factory TargetFactory) *Result {
	return RunContext(context.Background(), cfg, factory)
}

// RunContext executes a multi-chain MCMC run under ctx.
//
// Without a StopRule, Progress callback, or checkpointing, chains are
// independent and (optionally) run in parallel — the paper's
// coarse-grained chain-level parallelism. With any of those, chains
// advance in lockstep rounds: the rule is consulted every CheckInterval
// iterations (the paper's runtime convergence detection, §VI), Progress
// fires every round, and checkpoints are taken at aligned boundaries.
// Lockstep rounds are coordinated by persistent per-chain worker
// goroutines: the round costs two synchronizations, not N goroutine
// launches.
//
// Fault containment: every chain iteration runs under recover(). A chain
// that panics, produces a non-finite log density, or exceeds the
// configured divergence-storm threshold is quarantined — it stops
// advancing, keeps its clean draw prefix, and carries a typed ChainFault
// on its ChainResult — while the surviving chains run to completion. The
// StopRule sees only surviving chains.
//
// Cancellation is checked between iterations — never mid-leapfrog — so a
// canceled run returns promptly with every completed draw retained and
// Result.Interrupted set, rather than discarding the work done so far.
//
// With Config.ResumeFrom, the run continues from a checkpoint instead of
// initializing fresh chains, and is bit-identical from that point to the
// uninterrupted run the checkpoint was captured from.
func RunContext(ctx context.Context, cfg Config, factory TargetFactory) *Result {
	cfg = cfg.withDefaults()
	warmup := int(float64(cfg.Iterations) * cfg.WarmupFrac)

	targets := make([]Target, cfg.Chains)
	for c := 0; c < cfg.Chains; c++ {
		targets[c] = factory()
	}
	// Cross-chain gradient batching: on the parallel lockstep path, wrap
	// every chain's target so gradient requests meet at a per-round
	// rendezvous and run as fused data sweeps (Config.BatchGrad), as many
	// at a time as there are cores to run them. The coalescer stays
	// disarmed until the first round, so initialization and step-size
	// search below hit the per-chain targets directly.
	lockstep := cfg.StopRule != nil || cfg.Progress != nil || cfg.CheckpointEvery > 0
	var co *gradCoalescer
	if cfg.BatchGrad != nil && lockstep && cfg.Parallel && cfg.Chains > 1 {
		lanes := min(runtime.GOMAXPROCS(0), cfg.Chains)
		co = newGradCoalescer(cfg.Chains, lanes, cfg.BatchGrad, append([]Target(nil), targets...))
		for c := range targets {
			targets[c] = &coalescedTarget{inner: targets[c], co: co, c: c}
		}
	}
	if cfg.ResumeFrom != nil {
		if err := cfg.ResumeFrom.Validate(cfg, targets[0].Dim()); err != nil {
			panic(err)
		}
	}

	chains := make([]*ChainResult, cfg.Chains)
	steppers := make([]stepper, cfg.Chains)
	acceptSums := make([]float64, cfg.Chains)
	startIter := 0
	for c := 0; c < cfg.Chains; c++ {
		r := rng.NewStream(cfg.Seed, c)
		st := newStepper(cfg, targets[c], r, warmup)
		chains[c] = &ChainResult{
			Samples:    NewSamples(targets[c].Dim(), cfg.Iterations),
			LogDensity: make([]float64, 0, cfg.Iterations),
			Work:       make([]int64, 0, cfg.Iterations),
		}
		if cfg.ResumeFrom != nil {
			// restore replaces Init wholesale: it consumes no randomness
			// and leaves the chain exactly where the checkpoint froze it.
			restoreChain(&cfg.ResumeFrom.Chains[c], st, chains[c], &acceptSums[c])
		} else {
			q0, fellBack := initPoint(targets[c], rng.NewStream(cfg.Seed^0xabcdef, c), cfg.InitRadius)
			st.Init(q0)
			chains[c].InitFallback = fellBack
		}
		steppers[c] = st
	}
	if cfg.ResumeFrom != nil {
		startIter = cfg.ResumeFrom.Iteration
	}

	// Cancellation is surfaced to the hot loops as a single atomic flag:
	// one watcher goroutine waits on ctx.Done, and chains poll the flag
	// between iterations (an atomic load, not a mutex-guarded ctx.Err).
	var stop atomic.Bool
	if ctx.Err() != nil {
		stop.Store(true)
	} else if done := ctx.Done(); done != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-done:
				stop.Store(true)
			case <-finished:
			}
		}()
	}

	if !lockstep {
		iters, interrupted := runFree(cfg, steppers, chains, acceptSums, startIter, &stop)
		res := finish(cfg, chains, iters, false)
		res.Interrupted = interrupted
		return res
	}
	iters, elided, interrupted := runLockstep(cfg, steppers, chains, acceptSums, startIter, &stop, co)
	res := finish(cfg, chains, iters, elided)
	res.Interrupted = interrupted
	if co != nil {
		res.GradBatch = co.report()
	}
	return res
}

// initPoint draws a uniform(-r, r) starting point, retrying until the
// density is finite (Stan's initialization strategy). When no finite point
// is found in 100 attempts it falls back to the origin and reports the
// fallback, which the runner records on the chain result rather than
// hiding it.
func initPoint(t Target, r *rng.RNG, radius float64) (q []float64, fellBack bool) {
	dim := t.Dim()
	q = make([]float64, dim)
	for attempt := 0; attempt < 100; attempt++ {
		for i := range q {
			q[i] = (2*r.Float64() - 1) * radius
		}
		if lp := t.LogDensity(q); !math.IsInf(lp, -1) && !math.IsNaN(lp) {
			return q, false
		}
	}
	for i := range q {
		q[i] = 0
	}
	return q, true
}

// chainStepper wraps one chain's per-iteration work with the fault
// containment the runner guarantees: a recover() around the step, the
// non-finite log-density check, the divergence-storm counter, and the
// test-only fault hook. It appends only clean draws; on a fault it
// returns the typed record and the chain must not be stepped again.
type chainStepper struct {
	cfg    *Config
	c      int
	st     stepper
	res    *ChainResult
	accept *float64 // the chain's acceptSums slot

	consecDiv int
}

// step advances the chain one iteration (absolute index iter) and returns
// a non-nil fault if the chain must be quarantined.
func (cs *chainStepper) step(iter int) (fault *ChainFault) {
	defer func() {
		if r := recover(); r != nil {
			fault = &ChainFault{
				Chain:     cs.c,
				Kind:      FaultPanic,
				Iteration: cs.res.Samples.Len(),
				Msg:       fmt.Sprint(r),
				Stack:     string(debug.Stack()),
			}
		}
	}()
	act := FaultActNone
	if cs.cfg.FaultHook != nil {
		act = cs.cfg.FaultHook(cs.c, iter)
	}
	lp, work := cs.st.Step()
	if act == FaultActNonFinite {
		lp = math.NaN()
	}
	if math.IsNaN(lp) || math.IsInf(lp, 1) {
		// The chain's numerical state is no longer trustworthy; the
		// poisoned draw is never appended, so the retained prefix stays
		// clean.
		return &ChainFault{
			Chain:     cs.c,
			Kind:      FaultNonFinite,
			Iteration: cs.res.Samples.Len(),
			Msg:       fmt.Sprintf("non-finite log density %v at iteration %d", lp, iter),
		}
	}
	cs.res.Samples.Append(cs.st.Current())
	cs.res.LogDensity = append(cs.res.LogDensity, lp)
	cs.res.Work = append(cs.res.Work, work)
	*cs.accept += cs.st.AcceptStat()
	if cs.st.Divergent() {
		cs.res.Divergences++
		cs.consecDiv++
		if lim := cs.cfg.MaxConsecutiveDivergences; lim > 0 && cs.consecDiv >= lim {
			return &ChainFault{
				Chain:     cs.c,
				Kind:      FaultDivergenceStorm,
				Iteration: cs.res.Samples.Len(),
				Msg:       fmt.Sprintf("%d consecutive divergent iterations", cs.consecDiv),
			}
		}
	} else {
		cs.consecDiv = 0
	}
	return nil
}

// finalizeChain freezes adaptation and fills the chain's summary fields.
// Faulted chains get the defensive variant: the sampler state may be
// mid-panic garbage, so EndWarmup/StepSize run under recover.
func finalizeChain(st stepper, res *ChainResult, acceptSum float64) {
	if res.Fault == nil {
		st.EndWarmup()
		res.StepSize = st.StepSize()
	} else {
		res.StepSize = safeStepSize(st)
	}
	if n := res.Samples.Len(); n > 0 {
		res.AcceptRate = acceptSum / float64(n)
	}
}

// safeStepSize reads the step size from a possibly-corrupt sampler.
func safeStepSize(st stepper) (eps float64) {
	defer func() { _ = recover() }()
	st.EndWarmup()
	return st.StepSize()
}

// runFree runs every chain to its full iteration budget, in parallel when
// configured, stopping early if the cancel flag trips and quarantining
// chains that fault. Returns the aligned iteration count — the smallest
// any surviving chain completed (or, with no survivors, the smallest any
// chain retained) — and whether the run was cut short by cancellation.
func runFree(cfg Config, steppers []stepper, chains []*ChainResult, acceptSums []float64, startIter int, stop *atomic.Bool) (int, bool) {
	runChain := func(c int) {
		cs := &chainStepper{cfg: &cfg, c: c, st: steppers[c], res: chains[c], accept: &acceptSums[c]}
		for i := startIter; i < cfg.Iterations && !stop.Load(); i++ {
			if f := cs.step(i); f != nil {
				chains[c].Fault = f
				break
			}
		}
		finalizeChain(steppers[c], chains[c], acceptSums[c])
	}
	if cfg.Parallel {
		var wg sync.WaitGroup
		for c := range steppers {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				runChain(c)
			}(c)
		}
		wg.Wait()
	} else {
		for c := range steppers {
			runChain(c)
		}
	}
	return alignedIterations(cfg, chains)
}

// alignedIterations computes the run's aligned iteration count and
// whether surviving chains were cut short (interrupted). Faulted chains
// never shorten the aligned prefix while at least one chain survives.
func alignedIterations(cfg Config, chains []*ChainResult) (int, bool) {
	healthyMin, allMin := int(math.MaxInt64), int(math.MaxInt64)
	anyHealthy := false
	for _, ch := range chains {
		n := ch.Samples.Len()
		if n < allMin {
			allMin = n
		}
		if ch.Fault == nil {
			anyHealthy = true
			if n < healthyMin {
				healthyMin = n
			}
		}
	}
	if !anyHealthy {
		return allMin, false
	}
	return healthyMin, healthyMin < cfg.Iterations
}

// workerPool runs one persistent goroutine per chain and coordinates
// lockstep rounds with a reusable barrier: the coordinator signals each
// active worker's start channel and waits on a shared WaitGroup.
// Steady-state round cost is one channel send + one WaitGroup decrement
// per active chain — no goroutine creation, no per-round allocation.
type workerPool struct {
	start []chan struct{}
	round sync.WaitGroup
	exit  sync.WaitGroup
}

// newWorkerPool spawns len(steppers) workers executing stepOne(c) each
// time chain c's round is signaled.
func newWorkerPool(n int, stepOne func(c int)) *workerPool {
	p := &workerPool{start: make([]chan struct{}, n)}
	for c := 0; c < n; c++ {
		p.start[c] = make(chan struct{}, 1)
		p.exit.Add(1)
		go func(c int) {
			defer p.exit.Done()
			for range p.start[c] {
				stepOne(c)
				p.round.Done()
			}
		}(c)
	}
	return p
}

// step runs one lockstep round across the active workers and blocks until
// every signaled chain has advanced.
func (p *workerPool) step(active []bool) {
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	p.round.Add(n)
	for c, ch := range p.start {
		if active[c] {
			ch <- struct{}{}
		}
	}
	p.round.Wait()
}

// close shuts the workers down and waits for them to exit.
func (p *workerPool) close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.exit.Wait()
}

// runLockstep advances the active chains one iteration per round, consults
// the stop rule periodically over the surviving chains, reports progress
// every round, takes checkpoints at aligned boundaries, quarantines
// faulting chains, and checks the cancel flag between rounds. With
// cfg.Parallel the chains within a round run on persistent worker
// goroutines (they are independent, so results are identical to sequential
// execution). Returns executed iterations, whether the run was elided, and
// whether it was interrupted.
func runLockstep(cfg Config, steppers []stepper, chains []*ChainResult, acceptSums []float64, startIter int, stop *atomic.Bool, co *gradCoalescer) (int, bool, bool) {
	n := len(chains)
	active := make([]bool, n)
	views := make([]*Samples, 0, n)
	for c := range chains {
		active[c] = true
		views = append(views, chains[c].Samples)
	}
	css := make([]*chainStepper, n)
	faults := make([]*ChainFault, n) // worker-written, coordinator-read after the barrier
	for c := range chains {
		css[c] = &chainStepper{cfg: &cfg, c: c, st: steppers[c], res: chains[c], accept: &acceptSums[c]}
	}

	curIter := startIter // set by the coordinator before each round
	stepOne := func(c int) {
		faults[c] = css[c].step(curIter)
		if co != nil {
			// The chain is done requesting gradients this round; shrink
			// the rendezvous so stragglers stop waiting for it.
			co.leave(c)
		}
	}

	var pool *workerPool
	if cfg.Parallel && n > 1 {
		pool = newWorkerPool(n, stepOne)
		defer pool.close()
	}

	alive := n
	healthy := true // no chain has faulted yet (checkpointing gate)
	finalize := func() {
		for c := range steppers {
			finalizeChain(steppers[c], chains[c], acceptSums[c])
		}
	}

	for it := startIter; it < cfg.Iterations; it++ {
		if stop.Load() {
			finalize()
			return it, false, true
		}
		curIter = it
		if pool != nil {
			if co != nil {
				co.arm(active)
			}
			pool.step(active)
		} else {
			for c := range css {
				if active[c] {
					stepOne(c)
				}
			}
		}
		// Quarantine any chain that faulted this round: record the typed
		// fault, drop it from the round set, and rebuild the surviving
		// view list the StopRule sees.
		for c, f := range faults {
			if f == nil {
				continue
			}
			chains[c].Fault = f
			faults[c] = nil
			active[c] = false
			alive--
			healthy = false
		}
		if alive < len(views) {
			views = views[:0]
			for c := range chains {
				if active[c] {
					views = append(views, chains[c].Samples)
				}
			}
		}
		if alive == 0 {
			finalize()
			iters, _ := alignedIterations(cfg, chains)
			return iters, false, false
		}
		done := it + 1
		if cfg.Progress != nil {
			cfg.Progress(done)
		}
		if cfg.CheckpointEvery > 0 && healthy && done%cfg.CheckpointEvery == 0 {
			if ck := captureCheckpoint(cfg, steppers, chains, acceptSums, done); cfg.CheckpointSink != nil {
				cfg.CheckpointSink(ck)
			}
		}
		if cfg.StopRule != nil && done >= cfg.MinIterations && done%cfg.CheckInterval == 0 {
			if cfg.StopRule.ShouldStop(views, done) {
				finalize()
				return done, true, false
			}
		}
	}
	finalize()
	return cfg.Iterations, false, false
}

// finish assembles the Result.
func finish(cfg Config, chains []*ChainResult, iters int, elided bool) *Result {
	return &Result{Chains: chains, Iterations: iters, Elided: elided, Config: cfg}
}
