package mcmc

import (
	"math"
	"testing"

	"bayessuite/internal/diag"
	"bayessuite/internal/rng"
)

// gaussianTarget is a diagonal Gaussian test density with known moments.
type gaussianTarget struct {
	mu, sd []float64
}

func (g *gaussianTarget) Dim() int { return len(g.mu) }

func (g *gaussianTarget) LogDensityGrad(q, grad []float64) float64 {
	lp := 0.0
	for i := range q {
		z := (q[i] - g.mu[i]) / g.sd[i]
		lp += -0.5 * z * z
		grad[i] = -z / g.sd[i]
	}
	return lp
}

func (g *gaussianTarget) LogDensity(q []float64) float64 {
	lp := 0.0
	for i := range q {
		z := (q[i] - g.mu[i]) / g.sd[i]
		lp += -0.5 * z * z
	}
	return lp
}

// bananaTarget is a Rosenbrock-style curved density exercising adaptation.
type bananaTarget struct{}

func (bananaTarget) Dim() int { return 2 }
func (bananaTarget) LogDensityGrad(q, grad []float64) float64 {
	x, y := q[0], q[1]
	d := y - x*x
	lp := -0.5*x*x - 2*d*d
	grad[0] = -x + 8*d*x
	grad[1] = -4 * d
	return lp
}
func (b bananaTarget) LogDensity(q []float64) float64 {
	g := make([]float64, 2)
	return b.LogDensityGrad(q, g)
}

func newGaussian() *gaussianTarget {
	return &gaussianTarget{
		mu: []float64{1.5, -2, 0.5},
		sd: []float64{0.5, 2.0, 1.0},
	}
}

func checkMoments(t *testing.T, res *Result, g *gaussianTarget, tolMu, tolSD float64) {
	t.Helper()
	draws := res.SecondHalfDraws()
	flat := diag.FlattenChains(draws)
	dim := len(g.mu)
	for d := 0; d < dim; d++ {
		col := make([]float64, len(flat))
		for i := range flat {
			col[i] = flat[i][d]
		}
		var mean, m2 float64
		for i, v := range col {
			delta := v - mean
			mean += delta / float64(i+1)
			m2 += delta * (v - mean)
		}
		sd := math.Sqrt(m2 / float64(len(col)-1))
		if math.Abs(mean-g.mu[d]) > tolMu*g.sd[d] {
			t.Errorf("dim %d: mean %.3f want %.3f", d, mean, g.mu[d])
		}
		if math.Abs(sd-g.sd[d]) > tolSD*g.sd[d] {
			t.Errorf("dim %d: sd %.3f want %.3f", d, sd, g.sd[d])
		}
	}
	if r := diag.MaxSplitRHat(draws); r > 1.1 {
		t.Errorf("RHat %.3f > 1.1 on an easy Gaussian", r)
	}
}

func TestNUTSGaussianMoments(t *testing.T) {
	g := newGaussian()
	res := Run(Config{Chains: 4, Iterations: 1000, Sampler: NUTS, Seed: 11},
		func() Target { return g })
	checkMoments(t, res, g, 0.15, 0.2)
}

func TestHMCGaussianMoments(t *testing.T) {
	g := newGaussian()
	res := Run(Config{Chains: 4, Iterations: 1200, Sampler: HMC, Seed: 12},
		func() Target { return g })
	checkMoments(t, res, g, 0.2, 0.25)
}

func TestMHGaussianMoments(t *testing.T) {
	g := newGaussian()
	res := Run(Config{Chains: 4, Iterations: 8000, Sampler: MetropolisHastings, Seed: 13},
		func() Target { return g })
	checkMoments(t, res, g, 0.25, 0.3)
}

func TestNUTSBanana(t *testing.T) {
	res := Run(Config{Chains: 4, Iterations: 3000, Sampler: NUTS, Seed: 5},
		func() Target { return bananaTarget{} })
	if r := diag.MaxSplitRHat(res.SecondHalfDraws()); r > 1.1 {
		t.Errorf("RHat %.3f too high on banana", r)
	}
	// E[x] = 0 by symmetry.
	flat := diag.FlattenChains(res.SecondHalfDraws())
	mx := 0.0
	for _, d := range flat {
		mx += d[0]
	}
	mx /= float64(len(flat))
	if math.Abs(mx) > 0.2 {
		t.Errorf("banana E[x] = %.3f, want ~0", mx)
	}
}

func TestParallelMatchesSequentialWorkAccounting(t *testing.T) {
	g := newGaussian()
	seq := Run(Config{Chains: 4, Iterations: 400, Seed: 3}, func() Target { return g })
	par := Run(Config{Chains: 4, Iterations: 400, Seed: 3, Parallel: true}, func() Target { return g })
	// Same seeds, same streams: identical chains regardless of scheduling.
	if seq.TotalWork() != par.TotalWork() {
		t.Errorf("parallel changed work accounting: %d vs %d", seq.TotalWork(), par.TotalWork())
	}
	for c := range seq.Chains {
		a := seq.Chains[c].Samples
		b := par.Chains[c].Samples
		for i := 0; i < a.Len(); i++ {
			for d := 0; d < a.Dim(); d++ {
				if a.At(i, d) != b.At(i, d) {
					t.Fatalf("chain %d draw %d differs between parallel and sequential", c, i)
				}
			}
		}
	}
}

func TestWorkVariesAcrossChains(t *testing.T) {
	// The paper's slowest-chain effect requires per-chain work imbalance.
	res := Run(Config{Chains: 4, Iterations: 500, Seed: 21},
		func() Target { return bananaTarget{} })
	if res.MaxChainWork() == res.MinChainWork() {
		t.Error("expected per-chain work imbalance, all chains identical")
	}
	if res.MaxChainWork() <= 0 {
		t.Error("no work recorded")
	}
}

func TestLockstepParallelDeterministic(t *testing.T) {
	// With a StopRule, chains meet at every CheckInterval segment end;
	// running each segment's chains on goroutines must not change any draw.
	g := newGaussian()
	run := func(parallel bool) *Result {
		return Run(Config{
			Chains: 4, Iterations: 300, Seed: 17,
			StopRule: &stopAfter{n: 1 << 30}, // never fires
			Parallel: parallel,
		}, func() Target { return g })
	}
	seq := run(false)
	par := run(true)
	for c := range seq.Chains {
		a, b := seq.Chains[c].Samples, par.Chains[c].Samples
		for i := 0; i < a.Len(); i++ {
			for d := 0; d < a.Dim(); d++ {
				if a.At(i, d) != b.At(i, d) {
					t.Fatalf("chain %d draw %d differs between sequential and parallel", c, i)
				}
			}
		}
	}
}

type stopAfter struct{ n int }

func (s *stopAfter) ShouldStop(chains []*Samples, iter int) bool { return iter >= s.n }

func TestStopRuleTerminatesEarly(t *testing.T) {
	g := newGaussian()
	res := Run(Config{
		Chains: 4, Iterations: 2000, Seed: 9,
		StopRule: &stopAfter{n: 300}, CheckInterval: 50, MinIterations: 100,
	}, func() Target { return g })
	if !res.Elided {
		t.Fatal("stop rule did not fire")
	}
	if res.Iterations != 300 {
		t.Errorf("stopped at %d, want 300", res.Iterations)
	}
	for _, c := range res.Chains {
		if c.Samples.Len() != 300 {
			t.Errorf("chain has %d draws, want 300", c.Samples.Len())
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Chains != 4 || c.Iterations != 2000 || targetAccept != 0.8 || maxDepth != 10 || mhScale != 0.5 || initRadius != 2 {
		t.Errorf("unexpected defaults: %+v, tuning %g %d %g %g", c, targetAccept, maxDepth, mhScale, float64(initRadius))
	}
}

func TestFindReasonableEpsilon(t *testing.T) {
	g := newGaussian()
	h := newHamiltonian(g)
	r := rng.New(4)
	eps, work := h.findReasonableEpsilon([]float64{0, 0, 0}, r)
	if eps <= 0 || math.IsNaN(eps) {
		t.Fatalf("bad epsilon %g", eps)
	}
	if work <= 0 {
		t.Fatal("no work accounted")
	}
}

func TestSamplerKindString(t *testing.T) {
	if NUTS.String() != "nuts" || HMC.String() != "hmc" || MetropolisHastings.String() != "mh" {
		t.Error("SamplerKind names wrong")
	}
	if SamplerKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
