package bayessuite

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the same rows/series), plus the ablation
// benches DESIGN.md calls out and the paper's §VI-A overhead measurement.
//
// The figure benchmarks share a fast-mode bench.Harness whose sampler
// runs and profiles are cached after first use, so the timed loop
// measures regenerating the experiment from those runs. Headline numbers
// are attached with b.ReportMetric so `go test -bench` output records the
// reproduced values next to the timings.

import (
	"io"
	"sync"
	"testing"

	"bayessuite/internal/bench"
	"bayessuite/internal/diag"
	"bayessuite/internal/elide"
	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/perf"
	"bayessuite/internal/rng"
	"bayessuite/internal/workloads"
)

var (
	benchOnce    sync.Once
	benchHarness *bench.Harness
)

func figHarness(b *testing.B) *bench.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchHarness = bench.New(bench.Fast())
	})
	return benchHarness
}

// ---- Tables ----

func BenchmarkTable1(b *testing.B) {
	h := figHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RenderTable1(h, io.Discard)
	}
}

func BenchmarkTable2(b *testing.B) {
	h := figHarness(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.RenderTable2(h, io.Discard)
	}
}

// ---- Figures ----

func BenchmarkFig1SingleCoreStats(b *testing.B) {
	h := figHarness(b)
	rows := h.Fig1() // warm the caches before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = h.Fig1()
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Name == "votes" {
			b.ReportMetric(r.IPC, "votes-IPC")
		}
		if r.Name == "tickets" {
			b.ReportMetric(r.LLCMPKI, "tickets-LLC-MPKI@1")
		}
	}
}

func BenchmarkFig2MulticoreScaling(b *testing.B) {
	h := figHarness(b)
	rows := h.Fig2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = h.Fig2()
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Name == "tickets" {
			b.ReportMetric(r.LLCMPKI[2], "tickets-LLC-MPKI@4")
			b.ReportMetric(r.Speedup[2], "tickets-speedup@4")
		}
	}
}

func BenchmarkFig3LLCPrediction(b *testing.B) {
	h := figHarness(b)
	res, err := h.Fig3()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = h.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Predictor.ThresholdKB, "threshold-KB")
	b.ReportMetric(100*res.MaxRelErrAbove1, "max-rel-err-pct")
}

func BenchmarkFig4PlatformChoice(b *testing.B) {
	h := figHarness(b)
	res, err := h.Fig4()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = h.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.ScheduledSpeedup, "scheduled-speedup(paper:1.16)")
}

func BenchmarkFig5Convergence(b *testing.B) {
	h := figHarness(b)
	res := h.Fig5()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = h.Fig5()
	}
	b.StopTimer()
	b.ReportMetric(100*res.IterationSavings, "iters-elided-pct(paper:70)")
	b.ReportMetric(res.ChainImbalance, "chain-imbalance(paper:1.7)")
}

func BenchmarkFig6DSE(b *testing.B) {
	h := figHarness(b)
	res := h.Fig6()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = h.Fig6()
	}
	b.StopTimer()
	if len(res) > 0 && res[0].Space.User.EnergyJoules > 0 {
		b.ReportMetric(res[0].Space.Oracle.EnergyJoules/res[0].Space.User.EnergyJoules,
			"ad-oracle/user-energy")
	}
}

func BenchmarkFig7EnergySavings(b *testing.B) {
	h := figHarness(b)
	rows := h.Fig7()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = h.Fig7()
	}
	b.StopTimer()
	var avg float64
	for _, r := range rows {
		avg += r.SavingsPct
	}
	b.ReportMetric(avg/float64(len(rows)), "avg-energy-saving-pct(paper:70)")
}

func BenchmarkFig8OverallSpeedup(b *testing.B) {
	h := figHarness(b)
	res, err := h.Fig8()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = h.Fig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.AverageSpeedup, "avg-speedup(paper:5.8)")
	b.ReportMetric(res.OracleAverage, "oracle-speedup(paper:6.2)")
}

// ---- §VI-A overhead: the runtime R-hat computation ----

// BenchmarkRHatOverhead reproduces the paper's worst-case overhead
// measurement: R-hat over 1000 retained draws x 4 chains for the
// largest-dimension workload in the suite (the paper reports 0.06 s on a
// Skylake core for its C++ implementation).
func BenchmarkRHatOverhead(b *testing.B) {
	r := rng.New(1)
	const chains, kept = 4, 1000
	dim := 0
	for _, w := range workloads.All(0.25, 1) {
		if d := w.Model.Dim(); d > dim {
			dim = d
		}
	}
	draws := make([][][]float64, chains)
	for c := range draws {
		for i := 0; i < kept; i++ {
			v := make([]float64, dim)
			for d := range v {
				v[d] = r.Norm()
			}
			draws[c] = append(draws[c], v)
		}
	}
	b.ResetTimer()
	var v float64
	for i := 0; i < b.N; i++ {
		v = diag.MaxRHat(draws)
	}
	b.StopTimer()
	b.ReportMetric(v, "rhat")
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblationSampler compares MH, HMC and NUTS gradient/density
// evaluations to convergence (R-hat < 1.1) on the 12cities posterior.
func BenchmarkAblationSampler(b *testing.B) {
	w, err := workloads.New("12cities", 0.25, 3)
	if err != nil {
		b.Fatal(err)
	}
	budget := map[mcmc.SamplerKind]int{
		mcmc.NUTS: 2000, mcmc.HMC: 3000, mcmc.MetropolisHastings: 60000,
	}
	for i := 0; i < b.N; i++ {
		for _, kind := range []mcmc.SamplerKind{mcmc.NUTS, mcmc.HMC, mcmc.MetropolisHastings} {
			det := elide.NewDetector()
			res := mcmc.Run(mcmc.Config{
				Chains: 4, Iterations: budget[kind], Sampler: kind, Seed: 4,
				StopRule: det, Parallel: true,
			}, func() mcmc.Target { return model.NewEvaluator(w.Model) })
			b.ReportMetric(float64(res.TotalWork()), kind.String()+"-evals-to-converge")
			if !res.Elided {
				b.ReportMetric(1, kind.String()+"-did-not-converge")
			}
		}
	}
}

// BenchmarkAblationCacheModel compares the trace-driven LLC simulation
// against the closed-form occupancy model MPKI = potential * max(0,
// 1 - C/(n*R)) that one might use instead; the reported metric is the
// relative disagreement for the tickets-like profile where it matters.
func BenchmarkAblationCacheModel(b *testing.B) {
	w, err := workloads.New("tickets", 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := perf.Static(w)
	var sim, analytic float64
	for i := 0; i < b.N; i++ {
		sim = hw.SimulateLLC(p, hw.Skylake, 4)
		// Closed form: all stream lines miss at the occupancy-derived rate.
		potential := 2 * float64(p.StreamBytes()) / 64 / (p.InstrPerEval() / 1000)
		press := 1 - float64(hw.Skylake.LLCBytes)/float64(4*p.ResidentBytes())
		if press < 0 {
			press = 0
		}
		analytic = potential * press
	}
	b.ReportMetric(sim, "sim-MPKI")
	b.ReportMetric(analytic, "analytic-MPKI")
}

// ---- Microbenchmarks of the core substrate ----

func BenchmarkGradientEval(b *testing.B) {
	for _, name := range []string{"12cities", "ad", "votes", "tickets", "ode"} {
		w, err := workloads.New(name, 1, 3)
		if err != nil {
			b.Fatal(err)
		}
		ev := model.NewEvaluator(w.Model)
		q := make([]float64, ev.Dim())
		g := make([]float64, ev.Dim())
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev.LogDensityGrad(q, g)
			}
			b.ReportMetric(float64(ev.TapeEdges), "tape-edges")
		})
	}
}

func BenchmarkNUTSIteration(b *testing.B) {
	w, err := workloads.New("12cities", 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	res := mcmc.Run(mcmc.Config{Chains: 1, Iterations: 50, Seed: 2},
		func() mcmc.Target { return model.NewEvaluator(w.Model) })
	_ = res
	b.ResetTimer()
	iters := 0
	for iters < b.N {
		r := mcmc.Run(mcmc.Config{Chains: 1, Iterations: 100, Seed: uint64(iters + 3)},
			func() mcmc.Target { return model.NewEvaluator(w.Model) })
		iters += r.Iterations
	}
}

func BenchmarkCacheSimAccess(b *testing.B) {
	c := hw.NewCache(8<<20, 16, 64, hw.RandomReplacement)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64 % (32 << 20))
	}
}
