package main

import (
	"testing"
	"time"

	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
)

// BENCH_5: cross-chain gradient batching. The subject is a hierarchical
// normal GLM big enough that its data (~7.7 MB at n=240000, p=2) spills
// the L2 cache — the regime where fusing K chains' gradients into one
// cache-blocked sweep pays, because the data is streamed from the outer
// cache levels once per round instead of once per chain. At L2-resident
// sizes (the 60k model of BENCH_2) there is no traffic to amortize and
// batching is a wash; the paper's LLC-bound workloads are the former.
const (
	batchGLMN = 240000
	// batchDataBytes is the modeled data streamed by one sweep: x
	// (n×p float64), y, and the group index, the working set of the
	// gradient kernel.
	batchDataBytes = int64(batchGLMN * (normalGLMP + 2) * 8)
)

// batchEntry is one chain-count point of the gradient-layer comparison:
// a fused LogDensityGradBatch round versus the same K evaluations run
// independently, on identical parameter vectors.
type batchEntry struct {
	Chains           int     `json:"chains"`
	BatchedNsRound   int64   `json:"batched_ns_round"`
	UnbatchedNsRound int64   `json:"unbatched_ns_round"`
	Speedup          float64 `json:"speedup"`
	// SteadyAllocs is allocations per fused round after warmup (the
	// batched path must be allocation-free in steady state).
	SteadyAllocs int64 `json:"steady_allocs"`
	// Bytes of modeled data entering the cache hierarchy per round:
	// once for the fused sweep, K times for independent evaluation.
	BatchedBytesRound   int64 `json:"batched_bytes_round"`
	UnbatchedBytesRound int64 `json:"unbatched_bytes_round"`
}

// lockstepEntry is one chain-count point of the end-to-end comparison:
// full HMC lockstep runs, batched versus unbatched, same seed (the draws
// are bit-identical; only the evaluation schedule differs).
type lockstepEntry struct {
	Chains      int     `json:"chains"`
	Iterations  int     `json:"iterations"`
	BatchedMs   float64 `json:"batched_ms"`
	UnbatchedMs float64 `json:"unbatched_ms"`
	Speedup     float64 `json:"speedup"`
	// Sweeps and ChainEvals are the fused run's accounting: ChainEvals
	// gradient requests were served by Sweeps data sweeps, so the mean
	// batch occupancy is their ratio. Occupancy < Chains measures how
	// far per-chain step-size adaptation desynchronized the leapfrog
	// counts — the end-to-end ceiling on what batching can save.
	Sweeps        int64   `json:"sweeps"`
	ChainEvals    int64   `json:"chain_evals"`
	MeanOccupancy float64 `json:"mean_occupancy"`
	// Modeled-data bytes streamed per lockstep iteration (the LLC
	// traffic proxy): dataBytes × sweeps/iterations fused, versus
	// dataBytes × chainEvals/iterations independent.
	BatchedBytesIter   int64 `json:"batched_bytes_iter"`
	UnbatchedBytesIter int64 `json:"unbatched_bytes_iter"`
}

type report5 struct {
	Description string `json:"description"`
	N           int    `json:"n"`
	P           int    `json:"p"`
	Groups      int    `json:"groups"`
	DataBytes   int64  `json:"data_bytes"`
	Note        string `json:"note"`

	GradientLayer []batchEntry    `json:"gradient_layer"`
	Lockstep      []lockstepEntry `json:"lockstep"`
}

func batchReport(lockIters int) report5 {
	rep := report5{
		Description: "cross-chain gradient batching: one cache-blocked data sweep per lockstep round vs independent per-chain evaluation",
		N:           batchGLMN,
		P:           normalGLMP,
		Groups:      normalGLMGroups,
		DataBytes:   batchDataBytes,
		Note: "gradient_layer isolates the fused sweep itself (every chain present each round); " +
			"lockstep is end to end, where per-chain step-size adaptation spreads the leapfrog counts, " +
			"so mean_occupancy < chains and the wall-clock win is bounded by it — " +
			"the bytes-per-iteration proxy improves by exactly the occupancy factor",
	}
	m := newNormalGLMSized(batchGLMN, true)
	for _, k := range []int{1, 2, 4, 8} {
		rep.GradientLayer = append(rep.GradientLayer, gradLayerBench(m, k))
	}
	for _, k := range []int{1, 2, 4, 8} {
		rep.Lockstep = append(rep.Lockstep, lockstepBench(m, k, lockIters))
	}
	return rep
}

// gradLayerBench times one fused K-chain round against K independent
// single-chain evaluations at the same (distinct per chain) points.
func gradLayerBench(m *normalGLM, k int) batchEntry {
	dim := m.Dim()
	qs := make([][]float64, k)
	grads := make([][]float64, k)
	lps := make([]float64, k)
	for c := range qs {
		qs[c] = make([]float64, dim)
		grads[c] = make([]float64, dim)
		for i := range qs[c] {
			qs[c][i] = 0.1*float64(i%7) + 0.01*float64(c)
		}
	}

	be, ok := model.NewBatchEvaluator(m, k)
	if !ok {
		panic("benchjson: normalGLM not batchable")
	}
	be.LogDensityGradBatch(qs, grads, lps) // reach arena high-water marks
	rb := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			be.LogDensityGradBatch(qs, grads, lps)
		}
	})

	evs := make([]*model.Evaluator, k)
	for c := range evs {
		evs[c] = model.NewEvaluator(m)
		evs[c].LogDensityGrad(qs[c], grads[c])
	}
	ru := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c := range evs {
				lps[c] = evs[c].LogDensityGrad(qs[c], grads[c])
			}
		}
	})

	e := batchEntry{
		Chains:              k,
		BatchedNsRound:      rb.NsPerOp(),
		UnbatchedNsRound:    ru.NsPerOp(),
		SteadyAllocs:        rb.AllocsPerOp(),
		BatchedBytesRound:   batchDataBytes,
		UnbatchedBytesRound: int64(k) * batchDataBytes,
	}
	if e.BatchedNsRound > 0 {
		e.Speedup = float64(e.UnbatchedNsRound) / float64(e.BatchedNsRound)
	}
	return e
}

type benchNeverStop struct{}

func (benchNeverStop) ShouldStop(chains []*mcmc.Samples, iter int) bool { return false }

// lockstepBench runs the full HMC lockstep sampler with and without the
// coalescer. Identical seeds, bit-identical draws; the timing difference
// is purely the evaluation schedule.
func lockstepBench(m *normalGLM, chains, iters int) lockstepEntry {
	run := func(batched bool) (time.Duration, int64, int64) {
		cfg := mcmc.Config{
			Chains: chains, Iterations: iters, Sampler: mcmc.HMC, Seed: 19,
			IntTime: 0.25, StopRule: benchNeverStop{}, CheckInterval: iters,
			MinIterations: iters, Parallel: true,
		}
		factory := mcmc.TargetFactory(func() mcmc.Target { return model.NewEvaluator(m) })
		if batched {
			be, ok := model.NewBatchEvaluator(m, chains)
			if !ok {
				panic("benchjson: normalGLM not batchable")
			}
			cfg.BatchGrad = be.LogDensityGradBatch
			next := 0
			factory = func() mcmc.Target {
				c := next
				next++
				return be.Chain(c)
			}
		}
		start := time.Now()
		res := mcmc.Run(cfg, factory)
		el := time.Since(start)
		if res.GradBatch == nil {
			return el, 0, 0
		}
		// The coalescer's report, not the evaluator's counters: a request
		// that ends up alone in its batch never reaches the evaluator.
		return el, res.GradBatch.Sweeps, res.GradBatch.RealRows
	}

	bt, sweeps, evals := run(true)
	ut, _, _ := run(false)
	e := lockstepEntry{
		Chains: chains, Iterations: iters,
		BatchedMs:   float64(bt.Microseconds()) / 1e3,
		UnbatchedMs: float64(ut.Microseconds()) / 1e3,
		Sweeps:      sweeps, ChainEvals: evals,
	}
	if bt > 0 {
		e.Speedup = float64(ut) / float64(bt)
	}
	if sweeps > 0 {
		e.MeanOccupancy = float64(evals) / float64(sweeps)
		e.BatchedBytesIter = batchDataBytes * sweeps / int64(iters)
		e.UnbatchedBytesIter = batchDataBytes * evals / int64(iters)
	}
	return e
}
