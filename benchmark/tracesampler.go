package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"bayessuite/internal/diag"
	"bayessuite/internal/elide"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/workloads"
)

// timedTarget times one chain's gradient calls. Each chain owns one, and
// the runner drives a chain from a single goroutine, so the counters need
// no synchronisation; they are read after the run has returned.
type timedTarget struct {
	inner mcmc.Target
	calls int64
	busy  time.Duration
}

func (t *timedTarget) Dim() int { return t.inner.Dim() }

func (t *timedTarget) LogDensityGrad(q, grad []float64) float64 {
	start := time.Now()
	lp := t.inner.LogDensityGrad(q, grad)
	t.busy += time.Since(start)
	t.calls++
	return lp
}

func (t *timedTarget) LogDensity(q []float64) float64 { return t.inner.LogDensity(q) }

// timedRule times the convergence checks and records each as a span. With
// stop false it observes without ever stopping the run, as serve's
// traceRule does for a no_elide job.
type timedRule struct {
	det    *elide.Detector
	stop   bool
	tr     *tracer
	parent int
	job    string
	checks int
	busy   time.Duration
}

func (r *timedRule) ShouldStop(chains []*mcmc.Samples, iter int) bool {
	start := time.Now()
	stop := r.det.ShouldStop(chains, iter)
	end := time.Now()
	r.checks++
	r.busy += end.Sub(start)
	r.tr.add(r.parent, r.job, "elide.check", start, end, map[string]float64{"iteration": float64(iter)})
	return stop && r.stop
}

// samplerStats is what the wrappers saw of one traced sampler run.
type samplerStats struct {
	runWall   time.Duration
	cpu       time.Duration // process CPU time over the run
	gradBusy  time.Duration // Σ wall time inside per-chain gradient calls (includes waiting for a core)
	sweepBusy time.Duration // Σ time inside fused sweeps, which never overlap
	gradCalls int64         // per-chain calls that reached the model
	sweeps    int64
	sweepRows int64
	rounds    int64         // lockstep rounds (Progress calls)
	checks    int           // convergence checks
	checkBusy time.Duration // Σ time inside them
	ckpts     int64
	chains    int
	work      int64
	maxWork   int64
	minWork   int64
	iters     int
	lastCkpt  *mcmc.Checkpoint
	result    *mcmc.Result
	names     []string
}

// traceSamplerJob runs one job in-process with timing wrappers at every
// layer boundary the sampler crosses. asService wires mcmc.RunContext
// exactly as serve.runJobLocked does (lockstep, stop rule, progress,
// checkpoints every 50 iterations, fused batch gradients when the model
// has batched kernels); otherwise it wires mcmc.Run as bayessuite.Fit
// does (free-running parallel chains on per-chain evaluators). The draws
// are the ones the real path produces: the wrappers only read the clock.
func traceSamplerJob(ctx context.Context, tr *tracer, index int, spec jobSpec, asService bool) (*jobOutcome, *samplerStats) {
	o := &jobOutcome{Index: index, Spec: spec, ID: fmt.Sprintf("trace-%06d", index)}
	st := &samplerStats{chains: 4}
	o.SubmitStart = time.Now()
	failed := func(msg string) (*jobOutcome, *samplerStats) {
		o.SubmitEnd, o.DoneSeen = time.Now(), time.Now()
		o.Err = msg
		return o, st
	}

	buildStart := time.Now()
	w, err := workloads.New(spec.Workload, spec.Scale, spec.Seed)
	if err != nil {
		return failed("workloads.New: " + err.Error())
	}
	o.SubmitEnd = time.Now()
	kind := mcmc.NUTS
	if spec.Sampler != "" {
		if kind, err = mcmc.ParseSampler(spec.Sampler); err != nil {
			return failed(err.Error())
		}
	}
	budget := spec.Iterations
	if budget == 0 {
		budget = w.Info.Iterations
	}

	root := tr.add(0, o.ID, "job", o.SubmitStart, o.SubmitStart, nil) // end patched below
	tr.add(root, o.ID, "workloads.build", buildStart, o.SubmitEnd, nil)

	targets := make([]*timedTarget, 0, st.chains)
	cfg := mcmc.Config{
		Chains:     st.chains,
		Iterations: budget,
		Sampler:    kind,
		Seed:       spec.Seed,
		Parallel:   true,
	}
	factory := func() mcmc.Target {
		t := &timedTarget{inner: model.NewEvaluator(w.Model)}
		targets = append(targets, t)
		return t
	}
	var rule *timedRule
	runStart := time.Now()
	runSpan := tr.add(root, o.ID, "mcmc.run", runStart, runStart, nil) // end patched below
	if asService {
		rule = &timedRule{det: elide.NewDetector(), stop: !spec.NoElide, tr: tr, parent: runSpan, job: o.ID}
		cfg.StopRule = rule
		cfg.Progress = func(int) { st.rounds++ }
		cfg.CheckpointEvery = 50
		cfg.CheckpointSink = func(ck *mcmc.Checkpoint) {
			start := time.Now()
			st.lastCkpt = ck
			st.ckpts++
			tr.add(runSpan, o.ID, "mcmc.checkpoint_sink", start, time.Now(), map[string]float64{"iteration": float64(ck.Iteration)})
		}
		if be, ok := model.NewBatchEvaluator(w.Model, st.chains); ok {
			cfg.BatchGrad = func(qs, grads [][]float64, lps []float64) {
				start := time.Now()
				be.LogDensityGradBatch(qs, grads, lps)
				st.sweepBusy += time.Since(start)
				st.sweeps++
				for _, q := range qs {
					if q != nil {
						st.sweepRows++
					}
				}
			}
			next := 0
			factory = func() mcmc.Target { // called sequentially by the runner
				t := &timedTarget{inner: be.Chain(next)}
				next++
				targets = append(targets, t)
				return t
			}
		}
	}
	cpu0 := ownCPUTime()
	res := mcmc.RunContext(ctx, cfg, factory)
	runEnd := time.Now()
	st.cpu = ownCPUTime() - cpu0
	st.runWall = runEnd.Sub(runStart)
	st.result = res
	for _, t := range targets {
		st.gradBusy += t.busy
		st.gradCalls += t.calls
	}
	if rule != nil {
		st.checks, st.checkBusy = rule.checks, rule.busy
	}
	st.iters = res.Iterations
	st.work, st.maxWork, st.minWork = res.TotalWork(), res.MaxChainWork(), res.MinChainWork()

	// Summaries as the real path computes them.
	sumStart := time.Now()
	draws := res.SecondHalfDraws()
	if asService {
		draws = res.SecondHalfHealthyDraws()
		if c, ok := w.Model.(model.Constrainer); ok {
			st.names = c.ConstrainedNames()
		}
	}
	sums := diag.Summarize(draws, st.names)
	if asService {
		o.Result.MaxRHat = diag.MaxSplitRHat(draws)
	}
	o.DoneSeen = time.Now()
	tr.add(root, o.ID, "diag.summarize", sumStart, o.DoneSeen, nil)

	tr.patch(runSpan, runEnd, map[string]float64{
		"grad_evals":     float64(st.work),
		"grad_busy_s":    st.gradBusy.Seconds(),
		"sweep_busy_s":   st.sweepBusy.Seconds(),
		"cpu_s":          st.cpu.Seconds(),
		"solo_calls":     float64(st.gradCalls),
		"sweeps":         float64(st.sweeps),
		"sweep_rows":     float64(st.sweepRows),
		"iterations":     float64(res.Iterations),
		"max_chain_work": float64(st.maxWork),
		"min_chain_work": float64(st.minWork),
	})
	tr.patch(root, o.DoneSeen, nil)

	fillFromResult(o, res.Iterations, res.TotalWork(), len(res.Faults()), sums)
	o.Result.Elided = res.Elided
	o.Result.Budget = budget
	if rule != nil {
		for _, cp := range rule.det.Trace {
			o.Status.RHatTrace = append(o.Status.RHatTrace, rhatPoint{Iteration: cp.Iteration, RHat: cp.RHat})
		}
	}
	if res.Interrupted {
		o.Status.State, o.Result.State = "canceled", "canceled"
	}
	return o, st
}

// samplerTotals aggregates the per-job wrapper statistics of a traced
// sampler window.
type samplerTotals struct {
	// cycle is the mix length: the exact counts cover the first cycle of
	// jobs only, a prefix every run executes whatever its speed.
	cycle      int
	jobs       int
	runWall    time.Duration
	cpu        time.Duration
	sweepBusy  time.Duration
	work       int64
	iterChains int64
	sweeps     int64
	sweepRows  int64
	rounds     int64
	checks     int
	checkBusy  time.Duration
	imbalance  []float64

	firstWork, firstSweeps, firstCkpts, firstStop int64
}

func (a *samplerTotals) add(index int, st *samplerStats) {
	if index < a.cycle {
		a.firstWork += st.work
		a.firstSweeps += st.sweeps
		a.firstCkpts += st.ckpts
		a.firstStop += int64(st.iters)
	}
	a.jobs++
	a.runWall += st.runWall
	a.cpu += st.cpu
	a.sweepBusy += st.sweepBusy
	a.work += st.work
	a.iterChains += int64(st.iters) * int64(st.chains)
	a.sweeps += st.sweeps
	a.sweepRows += st.sweepRows
	a.rounds += st.rounds
	a.checks += st.checks
	a.checkBusy += st.checkBusy
	if st.minWork > 0 {
		a.imbalance = append(a.imbalance, float64(st.maxWork)/float64(st.minWork))
	}
}

// metrics turns the totals into the mcmc.* and elide.* layer metrics.
// Durations that only some stacks have (rounds, checks, checkpoints exist
// only on the lockstep path) are reported as rates and shares of the run
// wall, which read 0 where the layer is not on the path. The four counts
// are taken over the first cycle of jobs, so at one seed they repeat
// exactly however many jobs the window held.
func (a *samplerTotals) metrics(m map[string]value) {
	wall := a.runWall.Seconds()
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["mcmc.grad_evals"] = value{Value: float64(a.firstWork), Unit: "count", N: a.cycle}
	m["mcmc.core_util"] = value{Value: ratio(a.cpu.Seconds(), wall*float64(runtime.GOMAXPROCS(0))), Unit: "ratio"}
	m["mcmc.sweep_busy_share"] = value{Value: ratio(a.sweepBusy.Seconds(), wall), Unit: "ratio"}
	m["mcmc.leapfrogs_per_iter"] = value{Value: ratio(float64(a.work), float64(a.iterChains)), Unit: "ratio"}
	m["mcmc.chain_imbalance"] = value{Value: mean(a.imbalance), Unit: "ratio", N: len(a.imbalance)}
	m["mcmc.sweeps"] = value{Value: float64(a.firstSweeps), Unit: "count", N: a.cycle}
	m["mcmc.rows_per_sweep"] = value{Value: ratio(float64(a.sweepRows), float64(a.sweeps)), Unit: "ratio"}
	m["mcmc.rounds_per_s"] = value{Value: ratio(float64(a.rounds), wall), Unit: "1/s", N: int(a.rounds)}
	m["mcmc.checkpoints"] = value{Value: float64(a.firstCkpts), Unit: "count", N: a.cycle}
	m["elide.check_share"] = value{Value: ratio(a.checkBusy.Seconds(), wall), Unit: "ratio", N: a.checks}
	m["elide.stop_iter_sum"] = value{Value: float64(a.firstStop), Unit: "count", N: a.cycle}
}
