package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"bayessuite/internal/serve"
)

// calibrationSeed is bayesd's default -seed, the seed its predictor
// calibration datasets are built with; the in-process servers of a traced
// run are calibrated the same way.
const calibrationSeed = 7

// The traced run splits its window: a short reference pass over the real
// path, the workload's own trace, and short probes of the service stacks
// the workload does not use.
const (
	referenceShare = 1.0 / 24
	traceShare     = 0.5
	probeShare     = 1.0 / 6
)

// runTraced is the per-layer run of one workload. It measures, in order:
//
//  1. the micro rungs (ladder.go): direct calls into single layers;
//  2. a reference pass: the first jobs of the workload through the real
//     path (bayesd processes, or bayessuite.Fit), untraced;
//  3. the workload's trace: the same job list re-run in-process with
//     wrappers at the layer boundaries — the sampler trace for glm-sweep,
//     tape-mix and fit-free, the service trace for node-small and
//     fleet-small;
//  4. short service probes (the node-small and fleet-small mixes in
//     process) for whichever service stack step 3 did not cover, and a
//     short sampler pass where step 3 was a service trace, so the serve,
//     cluster, journal, mcmc and elide rungs are measured on every run.
//
// The traced jobs must reproduce the reference jobs' iterations and
// work_evals exactly; that equality is what licenses reading the
// in-process layer split onto the subprocess end-to-end numbers.
func runTraced(ctx context.Context, w workload, opt runOptions, buildTime time.Duration) (*runReport, error) {
	r := &runReport{Workload: w.Name, Traced: true, Metrics: map[string]value{}, Info: map[string]value{}}
	m := r.Metrics
	m["proc.build_s"] = value{Value: buildTime.Seconds(), Unit: "s"}

	pts, err := serve.SuiteCalibration(calibrationSeed)
	if err != nil {
		return nil, fmt.Errorf("calibrating the predictor: %w", err)
	}
	if err := runLadder(ctx, m, pts, opt); err != nil {
		return nil, err
	}

	ref, err := referencePass(ctx, w, opt)
	if err != nil {
		return nil, err
	}
	r.tally(ref)

	tr := newTracer()
	window := time.Duration(float64(opt.window) * traceShare)
	probe := time.Duration(float64(opt.window) * probeShare)
	cpu0, wall0 := ownCPUTime(), time.Now()
	var traced []*jobOutcome
	totals := samplerTotals{cycle: len(w.Mix)}
	node, fleet := mustWorkload("node-small"), mustWorkload("fleet-small")
	var nodeTrace, fleetTrace *serviceTrace

	// samplerPass re-runs the head of the job list, one job at a time,
	// through the wrapped sampler.
	samplerPass := func(tr *tracer, window time.Duration) []*jobOutcome {
		serial := w
		serial.Clients = 1 // the wrappers' totals are not synchronised
		return closedLoop(ctx, serial, opt.seed, window, func(ctx context.Context, i int, spec jobSpec) *jobOutcome {
			o, st := traceSamplerJob(ctx, tr, i, spec, w.Stack != stackLib)
			totals.add(i, st)
			return o
		})
	}
	switch {
	case w.Name == node.Name:
		if nodeTrace, err = traceService(ctx, tr, w, pts, opt, window); err != nil {
			return nil, err
		}
		traced = nodeTrace.outs
	case w.Name == fleet.Name:
		if fleetTrace, err = traceService(ctx, tr, w, pts, opt, window); err != nil {
			return nil, err
		}
		traced = fleetTrace.outs
	default:
		traced = samplerPass(tr, window)
	}
	traceWall := time.Since(wall0)
	traceCPU := ownCPUTime() - cpu0
	passed := r.tally(traced)
	if len(passed) == 0 {
		return nil, fmt.Errorf("%s: no traced job passed the gate", w.Name)
	}
	checkReproduced(r, ref, traced)
	if totals.jobs == 0 {
		// A service trace cannot see inside the sampler: a short sampler
		// pass over the same jobs fills the mcmc and elide rungs.
		r.tally(samplerPass(newTracer(), time.Duration(float64(opt.window)*referenceShare)))
	}

	if nodeTrace == nil {
		if nodeTrace, err = traceService(ctx, newTracer(), node, pts, opt, probe); err != nil {
			return nil, err
		}
		r.tally(nodeTrace.outs)
	}
	if fleetTrace == nil {
		if fleetTrace, err = traceService(ctx, newTracer(), fleet, pts, opt, probe); err != nil {
			return nil, err
		}
		r.tally(fleetTrace.outs)
	}

	totals.metrics(m)
	// serve.* describe the stack the workload's clients talk to: the fleet
	// for fleet-small, a single node everywhere else.
	if w.Stack == stackFleet {
		fleetTrace.serveMetrics(m)
	} else {
		nodeTrace.serveMetrics(m)
	}
	fleetTrace.clusterMetrics(m)
	nodeP50 := median(latencies(nodeTrace.outs))
	if nodeP50 > 0 {
		m["cluster.overhead_ratio"] = value{Value: median(latencies(fleetTrace.outs)) / nodeP50, Unit: "ratio"}
	}

	// The traced window against the same jobs on the real path.
	var evals float64
	for _, o := range passed {
		evals += float64(o.Result.WorkEvals)
	}
	m["trace.grad_evals_per_s"] = value{Value: evals / traceWall.Seconds(), Unit: "1/s", N: len(passed)}
	m["trace.overhead_frac"] = value{Value: overheadFrac(ref, traced), Unit: "ratio"}
	m["proc.cpu_s"] = value{Value: traceCPU.Seconds(), Unit: "s"}
	m["proc.cpu_util"] = value{Value: traceCPU.Seconds() / (traceWall.Seconds() * float64(runtime.NumCPU())), Unit: "ratio"}
	m["proc.peak_rss_mb"] = value{Value: ownPeakRSS(), Unit: "MB"}
	m["proc.calib_ns"] = value{Value: boxCalib(), Unit: "ns"}

	env := collectEnv(opt, false)
	path := filepath.Join(opt.root, "benchmark", "out", "trace-"+w.Name+".json")
	if err := tr.write(path, w.Name, opt.seed, env); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	for name, s := range selfByName(tr.snapshot()) {
		r.Info["self_s."+name] = value{Value: s, Unit: "s"}
	}
	return r, nil
}

func mustWorkload(name string) workload {
	w, err := workloadByName(name)
	if err != nil {
		panic(err) // a workload named in this package is missing from its own table
	}
	return w
}

func latencies(outs []*jobOutcome) []float64 {
	var lat []float64
	for _, o := range outs {
		if o.Fail == "" {
			lat = append(lat, o.latency().Seconds())
		}
	}
	return lat
}

// referencePass runs the head of the workload's job list through the real
// path with tracing off: one service set-up and a short closed loop.
func referencePass(ctx context.Context, w workload, opt runOptions) ([]*jobOutcome, error) {
	window := time.Duration(float64(opt.window) * referenceShare)
	if w.Stack == stackLib {
		return closedLoop(ctx, w, opt.seed, window, fitJob), nil
	}
	svc, err := startService(ctx, w, opt.bayesd, opt.tmpRoot)
	if err != nil {
		return nil, err
	}
	defer svc.stop()
	if err := svc.warm(ctx, w, opt.seed); err != nil {
		return nil, err
	}
	c := newClient(svc.base, w.Clients)
	defer c.close()
	return closedLoop(ctx, w, opt.seed, window, c.runJob), nil
}

// checkReproduced requires every job both passes ran to have done exactly
// the same work: equal seeds, equal draws, traced or not.
func checkReproduced(r *runReport, ref, traced []*jobOutcome) {
	common := 0
	for i := 0; i < len(ref) && i < len(traced); i++ {
		a, b := ref[i], traced[i]
		if a.Fail != "" || b.Fail != "" {
			continue
		}
		common++
		if a.Result.Iterations != b.Result.Iterations || a.Result.WorkEvals != b.Result.WorkEvals {
			r.fail("job %d (%s): traced run did %d iterations / %d evals, the real path %d / %d",
				i, a.Spec.Workload, b.Result.Iterations, b.Result.WorkEvals, a.Result.Iterations, a.Result.WorkEvals)
		}
	}
	r.Info["trace.jobs_reproduced"] = value{Value: float64(common), Unit: "count"}
	if common == 0 {
		r.fail("no job was run by both the reference pass and the traced pass")
	}
}

// overheadFrac is the traced latency of the jobs both passes ran, over
// their latency on the real path, minus one.
func overheadFrac(ref, traced []*jobOutcome) float64 {
	var a, b float64
	for i := 0; i < len(ref) && i < len(traced); i++ {
		if ref[i].Fail == "" && traced[i].Fail == "" {
			a += ref[i].latency().Seconds()
			b += traced[i].latency().Seconds()
		}
	}
	if a == 0 {
		return 0
	}
	return b/a - 1
}
