package mcmc_test

import (
	"fmt"
	"math"
	"testing"

	"bayessuite/internal/ad"
	"bayessuite/internal/dist"
	"bayessuite/internal/elide"
	"bayessuite/internal/kernels"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
	"bayessuite/internal/workloads"
)

// benchGaussian is a mid-size diagonal Gaussian: big enough that draw
// storage and R-hat checks matter, small enough that gradient time does
// not drown the runner overhead under measurement.
type benchGaussian struct{ dim int }

func (g *benchGaussian) Dim() int { return g.dim }

func (g *benchGaussian) LogDensityGrad(q, grad []float64) float64 {
	lp := 0.0
	for i := range q {
		lp += -0.5 * q[i] * q[i]
		grad[i] = -q[i]
	}
	return lp
}

func (g *benchGaussian) LogDensity(q []float64) float64 {
	lp := 0.0
	for i := range q {
		lp += -0.5 * q[i] * q[i]
	}
	return lp
}

// neverStop keeps the segment ends (and the R-hat math inside a
// Detector) running for the full budget: threshold below 1 can never be
// crossed, so the run is never elided and every check is measured.
func neverStop() *elide.Detector { return &elide.Detector{Threshold: 0.5} }

// BenchmarkRunnerLockstepElide measures the paper-mode hot path: 4 chains
// meeting for a convergence check every 10 iterations.
func BenchmarkRunnerLockstepElide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mcmc.Run(mcmc.Config{
			Chains: 4, Iterations: 1000, Sampler: mcmc.HMC, Seed: 11,
			StopRule: neverStop(), CheckInterval: 10, MinIterations: 20,
			Parallel: true,
		}, func() mcmc.Target { return &benchGaussian{dim: 16} })
		if res.Elided {
			b.Fatal("benchmark run elided")
		}
	}
}

// BenchmarkRunnerLockstepSequential is the same path without goroutines,
// isolating the per-segment coordination cost from chain-level parallelism.
func BenchmarkRunnerLockstepSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mcmc.Run(mcmc.Config{
			Chains: 4, Iterations: 1000, Sampler: mcmc.HMC, Seed: 11,
			StopRule: neverStop(), CheckInterval: 10, MinIterations: 20,
		}, func() mcmc.Target { return &benchGaussian{dim: 16} })
		if res.Elided {
			b.Fatal("benchmark run elided")
		}
	}
}

// BenchmarkRunnerFree measures the no-StopRule path (independent chains).
func BenchmarkRunnerFree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mcmc.Run(mcmc.Config{
			Chains: 4, Iterations: 1000, Sampler: mcmc.HMC, Seed: 11,
			Parallel: true,
		}, func() mcmc.Target { return &benchGaussian{dim: 16} })
	}
}

// ---- Kernel-vs-tape gradient benchmarks on a real large-N GLM ----
//
// tickets at full scale (8000 officer-months, 13 covariates, 400
// officers) is the suite's largest modeled dataset. The pair below
// measures the same seeded sampling run with the likelihood evaluated
// through the fused analytic kernel (the registry default) and through
// the legacy node-per-observation tape; their ratio is the kernel
// speedup. The BenchmarkGradient*{Kernel,Tape} pairs below time one
// gradient of each of the nine kernel-backed workloads on both paths.

func benchWorkloadRun(b *testing.B, m model.Model) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Short integration time keeps the leapfrog count per iteration
		// bounded so the benchmark cost tracks gradient-evaluation cost.
		mcmc.Run(mcmc.Config{
			Chains: 2, Iterations: 10, Sampler: mcmc.HMC, Seed: 19,
			IntTime: 0.25,
		}, func() mcmc.Target { return model.NewEvaluator(m) })
	}
}

// BenchmarkRunnerGLMKernel drives HMC over tickets on the fused-kernel path.
func BenchmarkRunnerGLMKernel(b *testing.B) {
	w, err := workloads.New("tickets", 1.0, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchWorkloadRun(b, w.Model)
}

// BenchmarkRunnerGLMTape is the identical run on the legacy tape path.
func BenchmarkRunnerGLMTape(b *testing.B) {
	w, err := workloads.New("tickets", 1.0, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchWorkloadRun(b, w.TapeModel())
}

// BenchmarkGradientGLMKernel isolates one gradient evaluation on the
// kernel path (steady-state allocations must be zero).
func BenchmarkGradientGLMKernel(b *testing.B) { benchRegistryGradient(b, "tickets", false) }

// BenchmarkGradientGLMTape isolates one gradient evaluation on the
// legacy tape path.
func BenchmarkGradientGLMTape(b *testing.B) { benchRegistryGradient(b, "tickets", true) }

// The other three batchable workloads (the first kernel ports), full scale.
func BenchmarkGradient12CitiesKernel(b *testing.B) { benchRegistryGradient(b, "12cities", false) }
func BenchmarkGradient12CitiesTape(b *testing.B)   { benchRegistryGradient(b, "12cities", true) }
func BenchmarkGradientADKernel(b *testing.B)       { benchRegistryGradient(b, "ad", false) }
func BenchmarkGradientADTape(b *testing.B)         { benchRegistryGradient(b, "ad", true) }
func BenchmarkGradientMemoryKernel(b *testing.B)   { benchRegistryGradient(b, "memory", false) }
func BenchmarkGradientMemoryTape(b *testing.B)     { benchRegistryGradient(b, "memory", true) }

func benchGradient(b *testing.B, m model.Model) {
	b.Helper()
	ev := model.NewEvaluator(m)
	q := make([]float64, ev.Dim())
	grad := make([]float64, ev.Dim())
	for i := range q {
		q[i] = 0.1 * float64(i%7)
	}
	ev.LogDensityGrad(q, grad) // warm arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.LogDensityGrad(q, grad)
	}
	b.ReportMetric(float64(ev.TapeNodes), "nodes")
	b.ReportMetric(float64(ev.TapeEdges), "edges")
}

// ---- Collapsed and fused ports: kernel vs legacy tape, full scale ----
//
// survival and butterfly collapse their data to counts at build time,
// racial, disease and votes only fuse; each pair is one gradient through
// the registry default and one through the legacy tape the
// characterization harness keeps measuring.

func benchRegistryGradient(b *testing.B, name string, tape bool) {
	b.Helper()
	w, err := workloads.New(name, 1.0, 3)
	if err != nil {
		b.Fatal(err)
	}
	if tape {
		benchGradient(b, w.TapeModel())
	} else {
		benchGradient(b, w.Model)
	}
}

func BenchmarkGradientSurvivalKernel(b *testing.B)  { benchRegistryGradient(b, "survival", false) }
func BenchmarkGradientSurvivalTape(b *testing.B)    { benchRegistryGradient(b, "survival", true) }
func BenchmarkGradientButterflyKernel(b *testing.B) { benchRegistryGradient(b, "butterfly", false) }
func BenchmarkGradientButterflyTape(b *testing.B)   { benchRegistryGradient(b, "butterfly", true) }
func BenchmarkGradientRacialKernel(b *testing.B)    { benchRegistryGradient(b, "racial", false) }
func BenchmarkGradientRacialTape(b *testing.B)      { benchRegistryGradient(b, "racial", true) }
func BenchmarkGradientDiseaseKernel(b *testing.B)   { benchRegistryGradient(b, "disease", false) }
func BenchmarkGradientDiseaseTape(b *testing.B)     { benchRegistryGradient(b, "disease", true) }
func BenchmarkGradientVotesKernel(b *testing.B)     { benchRegistryGradient(b, "votes", false) }
func BenchmarkGradientVotesTape(b *testing.B)       { benchRegistryGradient(b, "votes", true) }

// ---- Large-N normal-id GLM: the asymptotic kernel-vs-tape headline ----
//
// A hierarchical Gaussian regression (two covariates plus a group
// intercept — the memory/12cities shape at scale) has no per-observation
// transcendentals, so taping overhead (node + edge recording and the
// reverse sweep) is the entire per-observation cost the fused kernel
// removes. At n = 60000 the gradient-evaluation speedup is the
// asymptotic limit of what the kernel layer buys; logit/Poisson
// workloads sit lower because exp/log1p dominate both paths there.

const (
	normalGLMN      = 60000
	normalGLMP      = 2
	normalGLMGroups = 300
)

type normalGLMBench struct {
	y, x  []float64
	group []int
	kern  *kernels.NormalIDGLM // nil on the tape path
}

func newNormalGLMBench(kernel bool) *normalGLMBench {
	return newNormalGLMBenchN(normalGLMN, kernel)
}

// newNormalGLMBenchN sizes the same model explicitly; the batched
// gradient benchmarks use n large enough that the data block spills L2,
// the regime where one-sweep-for-K-chains pays.
func newNormalGLMBenchN(n int, kernel bool) *normalGLMBench {
	r := rng.New(41)
	m := &normalGLMBench{
		y:     make([]float64, n),
		x:     make([]float64, n*normalGLMP),
		group: make([]int, n),
	}
	beta := []float64{0.6, -0.4}
	for i := 0; i < n; i++ {
		eta := 0.0
		for j := 0; j < normalGLMP; j++ {
			v := r.Norm()
			m.x[i*normalGLMP+j] = v
			eta += v * beta[j]
		}
		gi := i % normalGLMGroups
		m.group[i] = gi
		eta += 0.3 * float64(gi%7-3)
		m.y[i] = eta + 0.8*r.Norm()
	}
	if kernel {
		m.kern = kernels.NewNormalIDGLM(m.y, m.x, normalGLMP, nil, m.group, normalGLMGroups)
	}
	return m
}

func (m *normalGLMBench) Name() string { return "normal-glm-bench" }
func (m *normalGLMBench) Dim() int     { return normalGLMP + normalGLMGroups + 1 }

func (m *normalGLMBench) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	b := model.NewBuilder(t)
	beta := q[:normalGLMP]
	u := q[normalGLMP : normalGLMP+normalGLMGroups]
	sigma := b.Positive(q[normalGLMP+normalGLMGroups])
	b.Add(dist.NormalLPDFVarData(t, beta, ad.Const(0), ad.Const(5)))
	b.Add(dist.NormalLPDFVarData(t, u, ad.Const(0), ad.Const(1)))
	b.Add(dist.NewHalfCauchy(1).LPDF(t, sigma))
	if m.kern != nil {
		b.Add(m.kern.LogLik(t, beta, u, sigma))
		return b.Result()
	}
	// Legacy shape: one Dot node and one group-intercept Add per
	// observation, then the vector normal recorder — the
	// node-per-observation structure the kernel replaces.
	mu := t.ScratchVars(len(m.y))
	for i := range mu {
		mu[i] = t.Add(t.Dot(beta, m.x[i*normalGLMP:(i+1)*normalGLMP]), u[m.group[i]])
	}
	b.Add(dist.NormalLPDFVec(t, m.y, mu, sigma))
	return b.Result()
}

// BenchmarkRunnerNormalGLMKernel samples the large-N Gaussian GLM on the
// fused-kernel path (steady-state gradient allocations are zero).
func BenchmarkRunnerNormalGLMKernel(b *testing.B) {
	benchWorkloadRun(b, newNormalGLMBench(true))
}

// BenchmarkRunnerNormalGLMTape is the identical seeded run with the
// likelihood recorded node-per-observation on the tape.
func BenchmarkRunnerNormalGLMTape(b *testing.B) {
	benchWorkloadRun(b, newNormalGLMBench(false))
}

// BenchmarkGradientNormalGLMKernel isolates one gradient evaluation of
// the large-N Gaussian GLM on the kernel path.
func BenchmarkGradientNormalGLMKernel(b *testing.B) {
	benchGradient(b, newNormalGLMBench(true))
}

// BenchmarkGradientNormalGLMTape isolates one gradient evaluation on the
// tape path.
func BenchmarkGradientNormalGLMTape(b *testing.B) {
	benchGradient(b, newNormalGLMBench(false))
}

// ---- Cross-chain batched gradient benchmarks ----
//
// The Batched/Unbatched pairs below measure the same seeded parallel
// run, segmented by a StopRule, with and without BatchGrad: at one proc
// batched runs fuse all chains' gradient requests into one cache-blocked
// data sweep per step; at more the runner ignores BatchGrad. BenchmarkGradientBatch isolates that sweep across chain
// counts.

func (m *normalGLMBench) BatchKernels() []kernels.Batcher {
	if m.kern == nil {
		return nil
	}
	return []kernels.Batcher{m.kern}
}

func (m *normalGLMBench) KernelParams(q []float64, dst [][]float64) {
	d := dst[0]
	copy(d[:normalGLMP+normalGLMGroups], q)
	d[normalGLMP+normalGLMGroups] = math.Exp(q[normalGLMP+normalGLMGroups]) + 0
}

func (m *normalGLMBench) LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	b := model.NewBuilder(t)
	beta := q[:normalGLMP]
	u := q[normalGLMP : normalGLMP+normalGLMGroups]
	sigma := b.Positive(q[normalGLMP+normalGLMGroups])
	b.Add(dist.NormalLPDFVarData(t, beta, ad.Const(0), ad.Const(5)))
	b.Add(dist.NormalLPDFVarData(t, u, ad.Const(0), ad.Const(1)))
	b.Add(dist.NewHalfCauchy(1).LPDF(t, sigma))
	b.Add(m.kern.LogLikPre(t, beta, u, sigma, &pre[0]))
	return b.Result()
}

func benchLockstepGLM(b *testing.B, batched bool, chains int) {
	b.Helper()
	m := newNormalGLMBench(true)
	var be *model.BatchEvaluator
	if batched {
		var ok bool
		be, ok = model.NewBatchEvaluator(m, chains)
		if !ok {
			b.Fatal("bench model is not batchable")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := mcmc.Config{
			Chains: chains, Iterations: 10, Sampler: mcmc.HMC, Seed: 19,
			IntTime: 0.25, StopRule: neverStop(), CheckInterval: 10,
			MinIterations: 20, Parallel: true,
		}
		var factory mcmc.TargetFactory
		if batched {
			cfg.BatchGrad = be.LogDensityGradBatch
			next := 0
			factory = func() mcmc.Target {
				c := next
				next++
				return be.Chain(c)
			}
		} else {
			factory = func() mcmc.Target { return model.NewEvaluator(m) }
		}
		mcmc.Run(cfg, factory)
	}
}

func BenchmarkRunnerBatchedLockstep2(b *testing.B)   { benchLockstepGLM(b, true, 2) }
func BenchmarkRunnerUnbatchedLockstep2(b *testing.B) { benchLockstepGLM(b, false, 2) }
func BenchmarkRunnerBatchedLockstep4(b *testing.B)   { benchLockstepGLM(b, true, 4) }
func BenchmarkRunnerUnbatchedLockstep4(b *testing.B) { benchLockstepGLM(b, false, 4) }

// The Registry pair is the end-to-end check of the coalescer on real
// jobs: registry workloads wired like a served job (NUTS, 4 chains,
// convergence stop rule, a checkpoint every 50 iterations), with and
// without BatchGrad; bayesd runs the unbatched side at every GOMAXPROCS.
// Both sides draw the same numbers and stop at the same iteration;
// grads/s is their common gradient count over wall time.
// Run at -cpu 1,2 (make bench-runner): one core shows what sharing the
// data pass buys. At two cores the runner builds no coalescer, so both
// sides run the same free-running chains and should read alike; served
// by bayesd, the rendezvous lost 1.3× there (DESIGN.md, "Runner layer").
func benchRegistry(b *testing.B, batched bool) {
	for _, job := range []struct {
		workload string
		scale    float64
	}{{"tickets", 0.05}, {"memory", 0.3}, {"tickets", 1.0}} {
		b.Run(fmt.Sprintf("%s@%g", job.workload, job.scale), func(b *testing.B) {
			w, err := workloads.New(job.workload, job.scale, 7)
			if err != nil {
				b.Fatal(err)
			}
			var grads int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := mcmc.Config{
					Chains: 4, Iterations: w.Info.Iterations, Sampler: mcmc.NUTS, Seed: 7,
					Parallel: true, StopRule: elide.NewDetector(),
					CheckpointEvery: 50, CheckpointSink: func(*mcmc.Checkpoint) {},
				}
				factory := mcmc.TargetFactory(func() mcmc.Target { return model.NewEvaluator(w.Model) })
				if batched {
					be, ok := model.NewBatchEvaluator(w.Model, cfg.Chains)
					if !ok {
						b.Fatalf("%s is not batchable", job.workload)
					}
					cfg.BatchGrad = be.LogDensityGradBatch
					next := 0
					factory = func() mcmc.Target {
						c := next
						next++
						return be.Chain(c)
					}
				}
				grads += mcmc.Run(cfg, factory).TotalWork()
			}
			b.ReportMetric(float64(grads)/b.Elapsed().Seconds(), "grads/s")
		})
	}
}

func BenchmarkRunnerBatchedRegistry(b *testing.B)   { benchRegistry(b, true) }
func BenchmarkRunnerUnbatchedRegistry(b *testing.B) { benchRegistry(b, false) }

// batchGLMN sizes the normal GLM so its data (x, y and the group index,
// ~7.7 MB) spills the L2 cache: the regime where one data sweep for K
// chains pays, because the data streams from the outer cache levels once
// per step instead of once per chain.
const batchGLMN = 240000

// BenchmarkGradientBatch times one K-chain gradient round at the same
// (distinct per chain) points two ways: "batched" is one fused
// LogDensityGradBatch sweep, "per-chain" the K evaluations one after
// another. Their ratio is what fusing buys at the gradient layer; the
// Runner{Batched,Unbatched}Lockstep pairs are the end-to-end view.
func BenchmarkGradientBatch(b *testing.B) {
	m := newNormalGLMBenchN(batchGLMN, true)
	for _, k := range []int{1, 2, 4, 8} {
		qs := make([][]float64, k)
		grads := make([][]float64, k)
		lps := make([]float64, k)
		for c := range qs {
			qs[c] = make([]float64, m.Dim())
			grads[c] = make([]float64, m.Dim())
			for i := range qs[c] {
				qs[c][i] = 0.1*float64(i%7) + 0.01*float64(c)
			}
		}
		b.Run(fmt.Sprintf("k=%d/batched", k), func(b *testing.B) {
			be, ok := model.NewBatchEvaluator(m, k)
			if !ok {
				b.Fatal("bench model is not batchable")
			}
			be.LogDensityGradBatch(qs, grads, lps) // warm arenas
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				be.LogDensityGradBatch(qs, grads, lps)
			}
		})
		b.Run(fmt.Sprintf("k=%d/per-chain", k), func(b *testing.B) {
			evs := make([]*model.Evaluator, k)
			for c := range evs {
				evs[c] = model.NewEvaluator(m)
				evs[c].LogDensityGrad(qs[c], grads[c]) // warm arenas
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c, ev := range evs {
					lps[c] = ev.LogDensityGrad(qs[c], grads[c])
				}
			}
		})
	}
}
