package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/diag"
	"bayessuite/internal/hw"
	"bayessuite/internal/journal"
	"bayessuite/internal/kernels"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/sched"
	"bayessuite/internal/workloads"
)

// The micro rungs call exported functions of single layers directly, warm
// and in steady state, on inputs that do not depend on the workload being
// traced. Each timed rung runs rungReps batches of at least rungBatch and
// reports the median batch.
const (
	rungBatch = 25 * time.Millisecond
	rungReps  = 3
)

// timeOp returns fn's steady-state cost in nanoseconds per call.
func timeOp(fn func()) float64 {
	fn() // warm: grow-only scratch, caches, lazy set-up
	per := make([]float64, 0, rungReps)
	for r := 0; r < rungReps; r++ {
		n := 0
		start := time.Now()
		for time.Since(start) < rungBatch {
			fn()
			n++
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return median(per)
}

// allocsPerOp counts heap allocations per call of fn in steady state: the
// smallest of three averaged counts, rounded, so that a stray allocation
// by the runtime between the two readings does not show as a fraction.
func allocsPerOp(fn func()) float64 {
	fn()
	const n = 20
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		best = math.Min(best, float64(after.Mallocs-before.Mallocs)/n)
	}
	return math.Round(best)
}

// gradScales is the data scale each registry workload is measured at on
// the kernel and gradient rungs. They are the rungs' own, fixed and larger
// than the job scales in workloads.go, so that the data term of a gradient
// is visible next to the per-parameter term.
var gradScales = []jobKind{
	{Workload: "tickets", Scale: 0.1},
	{Workload: "memory", Scale: 0.5},
	{Workload: "ad", Scale: 1.0},
	{Workload: "12cities", Scale: 1.0},
	{Workload: "disease", Scale: 0.1},
	{Workload: "votes", Scale: 0.1},
	{Workload: "racial", Scale: 0.5},
	{Workload: "butterfly", Scale: 1.0},
	{Workload: "survival", Scale: 1.0},
}

// point is a reproducible unconstrained point near the origin, where every
// registry model has a finite density.
func point(dim int, seed uint64, k int) []float64 {
	q := make([]float64, dim)
	for i := range q {
		u := float64(splitmix64(seed+uint64(k)*1000003, i)>>11) / (1 << 53)
		q[i] = 0.2 * (u - 0.5)
	}
	return q
}

// runLadder measures every micro rung and writes its metrics into m.
func runLadder(ctx context.Context, m map[string]value, pts []sched.Point, opt runOptions) error {
	seed := opt.seed
	// kernels: the fused batch sweep on the tickets GLM block, one row and
	// four rows.
	tk, err := workloads.New("tickets", gradScales[0].Scale, seed)
	if err != nil {
		return err
	}
	bm, ok := tk.Model.(model.BatchableModel)
	if !ok || len(bm.BatchKernels()) == 0 {
		return fmt.Errorf("ladder: tickets exposes no batch kernels")
	}
	kern := bm.BatchKernels()[0]
	sized, ok := kern.(interface{ N() int })
	if !ok {
		return fmt.Errorf("ladder: tickets GLM kernel does not report its observation count")
	}
	nObs := float64(sized.N())
	const rows = 4
	params := make([][]float64, rows)
	out := make([]kernels.BatchResult, rows)
	for k := range params {
		params[k] = make([]float64, kern.InputDim())
		out[k].Partials = make([]float64, kern.InputDim())
		bm.KernelParams(point(tk.Model.Dim(), seed, k), [][]float64{params[k]})
	}
	one := [][]float64{params[0], nil, nil, nil}
	k1 := timeOp(func() { kern.BatchEval(one, out) }) / nObs
	k4 := timeOp(func() { kern.BatchEval(params, out) }) / (rows * nObs)
	m["kernels.eval_ns_per_obs.k1"] = value{Value: k1, Unit: "ns"}
	m["kernels.eval_ns_per_obs.k4"] = value{Value: k4, Unit: "ns"}
	m["kernels.batch_gain.k4"] = value{Value: k1 / k4, Unit: "ratio"}
	m["kernels.sweep_bytes"] = value{Value: float64(tk.ModeledDataBytes()), Unit: "B"} // computed from array sizes, not measured
	m["kernels.allocs_per_sweep"] = value{Value: allocsPerOp(func() { kern.BatchEval(params, out) }), Unit: "count"}

	// model/ad: one gradient through the Evaluator, per registry workload.
	maxAllocs := 0.0
	for _, k := range gradScales {
		w := tk
		if k.Workload != "tickets" {
			if w, err = workloads.New(k.Workload, k.Scale, seed); err != nil {
				return err
			}
		}
		ev := model.NewEvaluator(w.Model)
		q, g := point(ev.Dim(), seed, 0), make([]float64, ev.Dim())
		if lp := ev.LogDensityGrad(q, g); math.IsInf(lp, 0) || math.IsNaN(lp) {
			return fmt.Errorf("ladder: %s has no finite density at the probe point", k.Workload)
		}
		m["model.grad_ns."+k.Workload] = value{Value: timeOp(func() { ev.LogDensityGrad(q, g) }), Unit: "ns"}
		maxAllocs = math.Max(maxAllocs, allocsPerOp(func() { ev.LogDensityGrad(q, g) }))
	}
	m["model.grad_allocs_max"] = value{Value: maxAllocs, Unit: "count"}
	be, ok := model.NewBatchEvaluator(tk.Model, rows)
	if !ok {
		return fmt.Errorf("ladder: tickets is not batchable")
	}
	qs, gs, lps := make([][]float64, rows), make([][]float64, rows), make([]float64, rows)
	for k := range qs {
		qs[k], gs[k] = point(tk.Model.Dim(), seed, k), make([]float64, tk.Model.Dim())
	}
	m["model.batch_grad_ns_per_row.tickets"] = value{Value: timeOp(func() { be.LogDensityGradBatch(qs, gs, lps) }) / rows, Unit: "ns"}

	// workloads: dataset synthesis, paid once per job by serve.
	m["workloads.build_ms.tickets"] = value{Value: timeOp(func() { workloads.New("tickets", gradScales[0].Scale, seed) }) / 1e6, Unit: "ms"}
	var small []float64
	for _, k := range smallMix {
		small = append(small, timeOp(func() { workloads.New(k.Workload, k.Scale, seed) })/1e6)
	}
	m["workloads.build_ms.small_mean"] = value{Value: mean(small), Unit: "ms", N: len(small)}

	// mcmc checkpoint codec, cluster draw wire and diag, on a real tickets
	// run: its last checkpoint as CheckpointSink received it, and its draws.
	_, st := traceSamplerJob(ctx, newTracer(), 0, jobSpec{Workload: "tickets", Scale: gradScales[0].Scale, Seed: seed}, true)
	if st.lastCkpt == nil || st.result == nil {
		return fmt.Errorf("ladder: the tickets run produced no checkpoint")
	}
	var enc []byte
	m["mcmc.checkpoint_encode_us"] = value{Value: timeOp(func() { enc = st.lastCkpt.Encode() }) / 1e3, Unit: "us"}
	m["mcmc.checkpoint_bytes"] = value{Value: float64(len(enc)), Unit: "B"}
	var decErr error
	m["mcmc.checkpoint_decode_us"] = value{Value: timeOp(func() { _, decErr = mcmc.DecodeCheckpoint(enc) }) / 1e3, Unit: "us"}
	if decErr != nil {
		return fmt.Errorf("ladder: checkpoint does not decode: %w", decErr)
	}
	var wire []byte
	m["cluster.draws_encode_us"] = value{Value: timeOp(func() { wire = cluster.EncodeDraws(st.result) }) / 1e3, Unit: "us"}
	m["cluster.draws_bytes"] = value{Value: float64(len(wire)), Unit: "B"}
	draws := st.result.SecondHalfHealthyDraws()
	m["diag.summarize_ms"] = value{Value: timeOp(func() {
		diag.Summarize(draws, st.names)
		diag.MaxSplitRHat(draws)
	}) / 1e6, Unit: "ms"}

	// sched: one fleet placement over two nodes.
	pred, err := sched.Fit(pts)
	if err != nil {
		return fmt.Errorf("ladder: fitting the predictor: %w", err)
	}
	fleet := sched.NewFleet(pred)
	nodes := []sched.Node{
		{ID: "skylake-1", LLCBytes: hw.Skylake.LLCBytes, FrequencyGHz: hw.Skylake.TurboGHz, Cores: hw.Skylake.Cores, Slots: 1, GradBatch: true},
		{ID: "broadwell-1", LLCBytes: hw.Broadwell.LLCBytes, FrequencyGHz: hw.Broadwell.TurboGHz, Cores: hw.Broadwell.Cores, Slots: 1, GradBatch: true},
	}
	m["sched.place_ns"] = value{Value: timeOp(func() { fleet.Place("tickets", tk.ModeledDataBytes(), nodes) }), Unit: "ns"}

	return journalRungs(m, opt, len(enc))
}

// journalRungs measures the durable store directly: fsynced appends of
// 256-byte records, and checkpoint-sized blob puts.
func journalRungs(m map[string]value, opt runOptions, blobSize int) error {
	if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(opt.tmpRoot, "journal-")
	if err != nil {
		return err
	}
	cleanup.addDir(dir)
	defer cleanup.removeDir(dir)

	j, _, err := journal.Open(filepath.Join(dir, "rung.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	// 240 appends: the 95th percentile then has twelve samples beyond it.
	const appends = 240
	rec := make([]byte, 256)
	us := make([]float64, 0, appends)
	for i := 0; i < appends; i++ {
		rec[0] = byte(i)
		start := time.Now()
		if err := j.Append(rec); err != nil {
			return err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	m["journal.append_us_p50"] = value{Value: median(us), Unit: "us", N: appends}
	m["journal.append_us_p95"] = value{Value: percentile(us, 95), Unit: "us", N: appends}

	blobs, err := journal.NewBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		return err
	}
	const puts = 40
	blob := make([]byte, blobSize)
	us = us[:0]
	for i := 0; i < puts; i++ {
		binary.LittleEndian.PutUint64(blob, uint64(i)) // distinct content: the store is content-addressed
		start := time.Now()
		if _, err := blobs.Put(blob); err != nil {
			return err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	m["journal.blob_put_us_p50"] = value{Value: median(us), Unit: "us", N: puts}
	return nil
}
