package mcmc

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// slowGaussian is a standard normal target that can stall inside Step's
// gradient evaluations, letting cancellation tests hold a run mid-flight
// deterministically.
type slowGaussian struct {
	dim   int
	delay time.Duration
}

func (g *slowGaussian) Dim() int { return g.dim }
func (g *slowGaussian) LogDensity(q []float64) float64 {
	lp := 0.0
	for _, v := range q {
		lp -= 0.5 * v * v
	}
	return lp
}
func (g *slowGaussian) LogDensityGrad(q, grad []float64) float64 {
	if g.delay > 0 {
		time.Sleep(g.delay)
	}
	for i, v := range q {
		grad[i] = -v
	}
	return g.LogDensity(q)
}

// neverStop is a StopRule that never fires: the chains meet at every
// checkInterval segment end and run their full budget unless canceled.
type neverStop struct{}

func (neverStop) ShouldStop([]*Samples, int) bool { return false }

func cancellationConfig(sampler SamplerKind, parallel bool) Config {
	return Config{
		Chains:     2,
		Iterations: 4000,
		Sampler:    sampler,
		Seed:       11,
		Parallel:   parallel,
	}
}

// expectInterrupted asserts the partial-result contract: the run reports
// the interruption, retains an aligned prefix of draws, and every chain
// holds at least that many draws.
func expectInterrupted(t *testing.T, res *Result, budget int) {
	t.Helper()
	if !res.Interrupted {
		t.Fatalf("Interrupted = false, want true")
	}
	if res.Elided {
		t.Fatalf("Elided = true on a canceled run")
	}
	if res.Iterations >= budget {
		t.Fatalf("Iterations = %d, want < %d", res.Iterations, budget)
	}
	for c, ch := range res.Chains {
		if ch.Samples.Len() < res.Iterations {
			t.Fatalf("chain %d holds %d draws, want >= aligned %d", c, ch.Samples.Len(), res.Iterations)
		}
		if got := len(ch.LogDensity); got != ch.Samples.Len() {
			t.Fatalf("chain %d: %d log densities for %d draws", c, got, ch.Samples.Len())
		}
	}
	// The aligned second-half window must stay rectangular for
	// diagnostics even if chains stopped at different iterations.
	sh := res.SecondHalfDraws()
	for c := 1; c < len(sh); c++ {
		if len(sh[c]) != len(sh[0]) {
			t.Fatalf("ragged second-half draws: chain %d has %d, chain 0 has %d", c, len(sh[c]), len(sh[0]))
		}
	}
}

func TestRunContextCancelFree(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := cancellationConfig(HMC, true)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res := RunContext(ctx, cfg, func() Target { return &slowGaussian{dim: 4, delay: 20 * time.Microsecond} })
	expectInterrupted(t, res, cfg.Iterations)
}

func TestRunContextCancelLockstep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := cancellationConfig(NUTS, true)
	cfg.StopRule = neverStop{}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res := RunContext(ctx, cfg, func() Target { return &slowGaussian{dim: 4, delay: 20 * time.Microsecond} })
	expectInterrupted(t, res, cfg.Iterations)
	// A cancel levels the live chains at the furthest one, so the aligned
	// count is exact: every chain holds exactly Iterations draws.
	for c, ch := range res.Chains {
		if ch.Samples.Len() != res.Iterations {
			t.Fatalf("checked run chain %d: %d draws, want exactly %d", c, ch.Samples.Len(), res.Iterations)
		}
	}
}

func TestRunContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cancellationConfig(MetropolisHastings, false)
	res := RunContext(ctx, cfg, func() Target { return &slowGaussian{dim: 2} })
	if !res.Interrupted {
		t.Fatalf("pre-canceled run not marked interrupted")
	}
	if res.Iterations != 0 {
		t.Fatalf("pre-canceled run executed %d iterations, want 0", res.Iterations)
	}
}

// TestRunContextCancelFromHook: a cancel issued inside chain 0's tenth
// iteration is seen at that chain's next iteration boundary, on one core
// as on many. The run is interrupted past the canceling iteration and
// short of the budget, with every chain holding exactly the returned
// count.
func TestRunContextCancelFromHook(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			withProcs(1, func() {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := Config{
					Chains: 4, Iterations: 2000, Sampler: HMC, Seed: 3, Parallel: parallel,
					FaultHook: func(chain, iter int) FaultAction {
						if chain == 0 && iter == 10 {
							cancel()
						}
						return FaultActNone
					},
				}
				res := RunContext(ctx, cfg, func() Target { return newGaussian() })
				if !res.Interrupted {
					t.Fatalf("Interrupted = false, want true")
				}
				if res.Iterations < 11 || res.Iterations >= cfg.Iterations {
					t.Fatalf("Iterations = %d, want in [11, %d)", res.Iterations, cfg.Iterations)
				}
				for c, ch := range res.Chains {
					if ch.Fault != nil || ch.Samples.Len() != res.Iterations {
						t.Errorf("chain %d: %d draws (fault %v), want exactly %d",
							c, ch.Samples.Len(), ch.Fault, res.Iterations)
					}
				}
			})
		})
	}
}

// TestProgressCallback: Progress fires once for each k, in order and never
// concurrently — sequential or parallel, with or without a chain
// quarantined mid-run — and observing a run leaves its draws bit-identical.
func TestProgressCallback(t *testing.T) {
	quarantine := func(chain, iter int) FaultAction {
		if chain == 1 && iter == 80 {
			return FaultActNonFinite
		}
		return FaultActNone
	}
	for _, tc := range []struct {
		name     string
		parallel bool
		hook     func(chain, iter int) FaultAction
	}{
		{"sequential", false, nil},
		{"parallel", true, nil},
		{"sequential-quarantined", false, quarantine},
		{"parallel-quarantined", true, quarantine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Chains: 2, Iterations: 200, Sampler: HMC, Seed: 3, Parallel: tc.parallel, FaultHook: tc.hook}
			free := Run(cfg, func() Target { return &slowGaussian{dim: 3} })

			// Plain ints, not atomics: under -race an overlapping call is
			// a reported data race, not just a flaky count.
			var seen []int
			inCall := 0
			cfgP := cfg
			cfgP.Progress = func(done int) {
				inCall++
				if inCall != 1 {
					t.Errorf("Progress(%d) overlaps another call", done)
				}
				seen = append(seen, done)
				inCall--
			}
			prog := Run(cfgP, func() Target { return &slowGaussian{dim: 3} })

			if tc.hook != nil && (prog.Chains[1].Fault == nil || prog.Chains[0].Fault != nil) {
				t.Fatalf("faults = %v, want chain 1 quarantined only", prog.Faults())
			}
			if len(seen) != cfg.Iterations {
				t.Fatalf("progress fired %d times, want %d", len(seen), cfg.Iterations)
			}
			for i, d := range seen {
				if d != i+1 {
					t.Fatalf("progress[%d] = %d, want %d", i, d, i+1)
				}
			}
			if prog.Interrupted || prog.Elided {
				t.Fatalf("observed run flagged interrupted=%v elided=%v", prog.Interrupted, prog.Elided)
			}
			for c := range free.Chains {
				fs, ps := free.Chains[c].Samples, prog.Chains[c].Samples
				if fs.Len() != ps.Len() {
					t.Fatalf("chain %d: unobserved %d draws vs observed %d", c, fs.Len(), ps.Len())
				}
				for i := 0; i < fs.Len(); i++ {
					for d := 0; d < fs.Dim(); d++ {
						if fs.At(i, d) != ps.At(i, d) {
							t.Fatalf("chain %d draw %d dim %d: unobserved %v vs observed %v",
								c, i, d, fs.At(i, d), ps.At(i, d))
						}
					}
				}
			}
		})
	}
}

// TestRunContextUncanceled: a context that never fires leaves the result
// indistinguishable from Run.
func TestRunContextUncanceled(t *testing.T) {
	cfg := Config{Chains: 2, Iterations: 100, Sampler: MetropolisHastings, Seed: 5}
	plain := Run(cfg, func() Target { return &slowGaussian{dim: 2} })
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	ctxed := RunContext(ctx, cfg, func() Target { return &slowGaussian{dim: 2} })
	if ctxed.Interrupted {
		t.Fatalf("uncanceled run marked interrupted")
	}
	if plain.Iterations != ctxed.Iterations {
		t.Fatalf("iterations differ: %d vs %d", plain.Iterations, ctxed.Iterations)
	}
	for c := range plain.Chains {
		a, b := plain.Chains[c].Samples, ctxed.Chains[c].Samples
		for i := 0; i < a.Len(); i++ {
			for d := 0; d < a.Dim(); d++ {
				if a.At(i, d) != b.At(i, d) {
					t.Fatalf("chain %d draw %d differs under a passive context", c, i)
				}
			}
		}
	}
}
