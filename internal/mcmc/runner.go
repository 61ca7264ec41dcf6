package mcmc

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

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
// The chains are independent and, with Config.Parallel, run on their own
// goroutines — the paper's coarse-grained chain-level parallelism. They
// meet only at the end of a segment (see runner): every checkInterval
// iterations when a StopRule is set (the paper's runtime convergence
// detection, §VI) or ctx can be canceled, and every CheckpointEvery
// iterations when checkpointing. Without either, the run is one segment
// and the chains never wait for each other.
//
// Config.BatchGrad adds a rendezvous inside the segment only when
// GOMAXPROCS is 1: there the chains timeshare one core anyway, and their
// gradient requests leave as one fused data sweep per leapfrog step. With
// two or more cores the chains run free on their own targets, because a
// rendezvous that makes chains wait for each other costs more than a
// shared data pass saves: served glm-sweep jobs on a 2-core Xeon made
// 1.3× more gradients per second without it.
//
// Fault containment: every chain iteration runs under recover(). A chain
// that panics, produces a non-finite log density, or exceeds the
// configured divergence-storm threshold is quarantined — it stops
// advancing, keeps its clean draw prefix, and carries a typed ChainFault
// on its ChainResult — while the surviving chains run to completion. The
// StopRule sees only surviving chains.
//
// Cancellation is polled between iterations — never mid-leapfrog. Each
// chain stops at its next iteration; the live chains are then stepped,
// ignoring the cancel, up to the furthest one (never past the segment's
// end, whose boundary is processed if they reach it), so a canceled run
// returns promptly with Result.Interrupted set and every surviving chain
// holding exactly Result.Iterations draws.
//
// With Config.ResumeFrom, the run continues from a checkpoint instead of
// initializing fresh chains, and is bit-identical from that point to the
// uninterrupted run the checkpoint was captured from.
func RunContext(ctx context.Context, cfg Config, factory TargetFactory) *Result {
	cfg = cfg.withDefaults()
	warmup := int(float64(cfg.Iterations) * warmupFrac)

	targets := make([]Target, cfg.Chains)
	for c := 0; c < cfg.Chains; c++ {
		targets[c] = factory()
	}
	// Cross-chain gradient batching, on one core only (see
	// Config.BatchGrad): wrap every chain's target so gradient requests
	// meet at a per-segment rendezvous and run as one fused data sweep for
	// every chain still stepping. With a second core the chains keep their
	// own targets and never wait for each other. The coalescer stays
	// disarmed until the first segment, so initialization and step-size
	// search below hit the per-chain targets directly.
	var co *gradCoalescer
	if cfg.BatchGrad != nil && cfg.Parallel && cfg.Chains > 1 && runtime.GOMAXPROCS(0) == 1 {
		co = newGradCoalescer(cfg.Chains, cfg.BatchGrad, append([]Target(nil), targets...))
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
			q0, fellBack := initPoint(targets[c], rng.NewStream(cfg.Seed^0xabcdef, c))
			st.Init(q0)
			chains[c].InitFallback = fellBack
		}
		steppers[c] = st
	}
	if cfg.ResumeFrom != nil {
		startIter = cfg.ResumeFrom.Iteration
	}

	iters, elided, interrupted := newRunner(&cfg, steppers, chains, acceptSums, startIter, co).run(ctx, startIter)
	return &Result{Chains: chains, Iterations: iters, Elided: elided, Interrupted: interrupted, Config: cfg}
}

// initPoint draws a uniform(-r, r) starting point, retrying until the
// density is finite (Stan's initialization strategy). When no finite point
// is found in 100 attempts it falls back to the origin and reports the
// fallback, which the runner records on the chain result rather than
// hiding it.
func initPoint(t Target, r *rng.RNG) (q []float64, fellBack bool) {
	dim := t.Dim()
	q = make([]float64, dim)
	for attempt := 0; attempt < 100; attempt++ {
		for i := range q {
			q[i] = (2*r.Float64() - 1) * initRadius
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

// runner drives the chains one segment at a time. A segment ends at the
// budget, at the next CheckpointEvery multiple, and — when a StopRule may
// read the draws or the run can be canceled — at the next checkInterval
// multiple: the only iterations at which the runner has anything to
// decide. Inside a segment each live chain steps on its own, with no
// barrier between iterations; the chains meet at its end, where faults are
// quarantined, checkpoints captured and the stop rule consulted over the
// surviving chains. Chains are independent RNG streams and every decision
// reads the same aligned prefixes at the same iteration, so draws, stop
// iterations and checkpoints do not depend on how the chains interleave.
//
// Between segments only the runner touches chain state; inside one, chain
// c's goroutine owns css[c], and only the progress fields are shared.
type runner struct {
	cfg        *Config
	steppers   []stepper
	chains     []*ChainResult
	acceptSums []float64
	css        []*chainStepper
	live       []bool     // not quarantined
	views      []*Samples // the live chains' draws, as the StopRule sees them
	co         *gradCoalescer
	done       <-chan struct{} // ctx.Done(); nil when the run cannot be canceled

	mu       sync.Mutex // guards held and reported
	held     []int      // draws each chain holds; math.MaxInt once it faults
	reported int        // last count passed to Progress
}

// newRunner sets up the run's chains, all live, at iteration startIter.
func newRunner(cfg *Config, steppers []stepper, chains []*ChainResult, acceptSums []float64, startIter int, co *gradCoalescer) *runner {
	n := len(chains)
	r := &runner{
		cfg: cfg, steppers: steppers, chains: chains, acceptSums: acceptSums,
		css: make([]*chainStepper, n), live: make([]bool, n), views: make([]*Samples, n),
		co:   co,
		held: make([]int, n), reported: startIter,
	}
	for c := range chains {
		r.css[c] = &chainStepper{cfg: cfg, c: c, st: steppers[c], res: chains[c], accept: &acceptSums[c]}
		r.live[c] = true
		r.views[c] = chains[c].Samples
		r.held[c] = startIter
	}
	return r
}

// run advances the chains from iteration it and returns the executed
// iterations, whether the stop rule fired, and whether cancellation cut
// the run short.
func (r *runner) run(ctx context.Context, it int) (iters int, elided, interrupted bool) {
	cfg := r.cfg
	r.done = ctx.Done()
	defer r.finalize()
	for it < cfg.Iterations {
		end := r.segmentEnd(it)
		r.segment(end, true)
		canceled := ctx.Err() != nil
		if canceled && len(r.views) > 0 {
			// Level the live chains at the furthest one, ignoring the
			// cancel, so that every chain holds exactly the count returned.
			r.segment(r.furthest(), false)
		}
		if len(r.views) == 0 {
			return r.shortest(), false, false
		}
		it = r.furthest()
		if it == end {
			// Checkpoints stop at the first quarantine: the last one is the
			// most recent all-healthy state.
			healthy := len(r.views) == len(r.chains)
			if cfg.CheckpointSink != nil && cfg.CheckpointEvery > 0 && healthy && it%cfg.CheckpointEvery == 0 {
				cfg.CheckpointSink(captureCheckpoint(*cfg, r.steppers, r.chains, r.acceptSums, it))
			}
			if cfg.StopRule != nil && it >= minIterations && it%checkInterval == 0 &&
				cfg.StopRule.ShouldStop(r.views, it) {
				return it, true, false
			}
		}
		if canceled {
			return it, false, it < cfg.Iterations
		}
	}
	return cfg.Iterations, false, false
}

// segmentEnd returns where the segment starting at iteration it ends.
func (r *runner) segmentEnd(it int) int {
	cfg := r.cfg
	next := func(every int) int { return (it/every + 1) * every }
	end := cfg.Iterations
	if cfg.CheckpointEvery > 0 {
		end = min(end, next(cfg.CheckpointEvery))
	}
	if cfg.StopRule != nil || r.done != nil {
		end = min(end, next(checkInterval))
	}
	return end
}

// segment steps every live chain from the draws it holds up to end — one
// goroutine per chain with cfg.Parallel, otherwise one chain after
// another — and then quarantines the chains that faulted. With
// honorCancel a chain also stops at its first iteration boundary after
// the run's context is done.
func (r *runner) segment(end int, honorCancel bool) {
	if r.co != nil {
		r.co.arm(r.live)
	}
	if r.cfg.Parallel {
		var wg sync.WaitGroup
		for c, ok := range r.live {
			if ok {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.runChain(c, end, honorCancel)
				}()
			}
		}
		wg.Wait()
	} else {
		for c, ok := range r.live {
			if ok {
				r.runChain(c, end, honorCancel)
			}
		}
	}
	r.views = r.views[:0]
	for c, ch := range r.chains {
		if ch.Fault != nil {
			r.live[c] = false
		} else {
			r.views = append(r.views, ch.Samples)
		}
	}
}

// runChain is chain c's share of a segment.
func (r *runner) runChain(c, end int, honorCancel bool) {
	cs := r.css[c]
	for i := cs.res.Samples.Len(); i < end; i++ {
		if honorCancel && r.canceled() {
			break
		}
		if f := cs.step(i); f != nil {
			cs.res.Fault = f
			r.advance(c, math.MaxInt)
			break
		}
		r.advance(c, i+1)
	}
	if r.co != nil {
		// The chain requests no more gradients this segment; shrink the
		// rendezvous so the others stop waiting for it.
		r.co.leave(c)
	}
}

// canceled polls the run's context without blocking.
func (r *runner) canceled() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// advance records that chain c holds n draws (math.MaxInt once it has
// faulted) and fires Progress, in order and under the lock, for every
// count all live chains now hold.
func (r *runner) advance(c, n int) {
	if r.cfg.Progress == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.held[c] = n
	for low := slices.Min(r.held); low != math.MaxInt && r.reported < low; {
		r.reported++
		r.cfg.Progress(r.reported)
	}
}

// furthest returns the most draws any live chain holds.
func (r *runner) furthest() int {
	n := 0
	for _, s := range r.views {
		n = max(n, s.Len())
	}
	return n
}

// shortest returns the fewest draws any chain holds: the aligned count of
// a run whose every chain was quarantined.
func (r *runner) shortest() int {
	n := math.MaxInt
	for _, ch := range r.chains {
		n = min(n, ch.Samples.Len())
	}
	return n
}

// finalize freezes every chain's adaptation and fills its summary fields.
func (r *runner) finalize() {
	for c, st := range r.steppers {
		finalizeChain(st, r.chains[c], r.acceptSums[c])
	}
}
