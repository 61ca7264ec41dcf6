package mcmc

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// neverFire is a StopRule that never triggers: the run meets at every
// checkInterval segment end while keeping the full iteration budget.
type neverFire struct{}

func (neverFire) ShouldStop(chains []*Samples, iter int) bool { return false }

func sameDraws(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Chains) != len(b.Chains) {
		t.Fatalf("%s: chain count %d vs %d", label, len(a.Chains), len(b.Chains))
	}
	for c := range a.Chains {
		sa, sb := a.Chains[c].Samples, b.Chains[c].Samples
		if sa.Len() != sb.Len() || sa.Dim() != sb.Dim() {
			t.Fatalf("%s: chain %d shape (%d,%d) vs (%d,%d)",
				label, c, sa.Len(), sa.Dim(), sb.Len(), sb.Dim())
		}
		for i := 0; i < sa.Len(); i++ {
			for d := 0; d < sa.Dim(); d++ {
				if sa.At(i, d) != sb.At(i, d) {
					t.Fatalf("%s: chain %d draw %d param %d: %v vs %v",
						label, c, i, d, sa.At(i, d), sb.At(i, d))
				}
			}
		}
		if a.Chains[c].AcceptRate != b.Chains[c].AcceptRate {
			t.Errorf("%s: chain %d accept rate %v vs %v",
				label, c, a.Chains[c].AcceptRate, b.Chains[c].AcceptRate)
		}
	}
}

// stopAt is a StopRule that fires at the first check at or past iteration n.
type stopAt int

func (n stopAt) ShouldStop(chains []*Samples, iter int) bool { return iter >= int(n) }

// TestSeedDeterminism checks the bit-identity guarantees the runner makes
// for a fixed Config.Seed: scheduling must not matter (sequential vs
// Parallel), segmenting must not matter (one segment vs a StopRule that
// never fires, consulted at every checkInterval), the chain count must not
// matter (a c-chain run is the first c chains of a 4-chain run), and a run
// a StopRule ends early is a prefix of the run without one. The figure
// harness reads every elision and chain-subset run off one 4-chain run on
// the strength of the last two.
func TestSeedDeterminism(t *testing.T) {
	for _, kind := range []SamplerKind{HMC, NUTS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := Config{Chains: 4, Iterations: 400, Sampler: kind, Seed: 31}
			target := func() Target { return newGaussian() }

			seqFree := Run(base, target)

			parCfg := base
			parCfg.Parallel = true
			parFree := Run(parCfg, target)
			sameDraws(t, kind.String()+" free seq-vs-parallel", seqFree, parFree)

			checkCfg := base
			checkCfg.StopRule = neverFire{}
			seqCheck := Run(checkCfg, target)
			sameDraws(t, kind.String()+" one-segment-vs-checked", seqFree, seqCheck)

			parCheckCfg := checkCfg
			parCheckCfg.Parallel = true
			parCheck := Run(parCheckCfg, target)
			sameDraws(t, kind.String()+" checked seq-vs-parallel", seqCheck, parCheck)

			for _, chains := range []int{1, 2} {
				for _, par := range []bool{false, true} {
					cfg := base
					cfg.Chains, cfg.Parallel = chains, par
					sub := &Result{Chains: seqFree.Chains[:chains]}
					sameDraws(t, fmt.Sprintf("%s %d-chain (parallel %v) vs first chains of 4", kind, chains, par),
						sub, Run(cfg, target))
				}
			}

			stopCfg := parCfg
			stopCfg.StopRule = stopAt(200)
			stopped := Run(stopCfg, target)
			if !stopped.Elided || stopped.Iterations != 200 {
				t.Fatalf("%s: stop rule ended the run at %d (elided %v), want 200", kind, stopped.Iterations, stopped.Elided)
			}
			for c, ch := range stopped.Chains {
				full := seqFree.Chains[c]
				for i := 0; i < ch.Samples.Len(); i++ {
					for d := 0; d < ch.Samples.Dim(); d++ {
						if ch.Samples.At(i, d) != full.Samples.At(i, d) {
							t.Fatalf("%s stopped-vs-full: chain %d draw %d param %d: %v vs %v",
								kind, c, i, d, ch.Samples.At(i, d), full.Samples.At(i, d))
						}
					}
					if ch.Work[i] != full.Work[i] {
						t.Fatalf("%s stopped-vs-full: chain %d iteration %d work %d vs %d", kind, c, i, ch.Work[i], full.Work[i])
					}
				}
			}
		})
	}
}

// TestAcceptRateIsMean guards the finalizeAcceptance fix: a one-segment run
// must report the mean acceptance statistic, not the last iteration's
// value, and a legitimate zero rate must survive (no == 0 sentinel).
func TestAcceptRateIsMean(t *testing.T) {
	res := Run(Config{Chains: 2, Iterations: 500, Sampler: HMC, Seed: 8},
		func() Target { return newGaussian() })
	for c, ch := range res.Chains {
		if ch.AcceptRate <= 0 || ch.AcceptRate > 1 {
			t.Errorf("chain %d accept rate %v out of range", c, ch.AcceptRate)
		}
		// On an easy Gaussian the mean HMC acceptance is high but not
		// exactly the last step's statistic; the mean over 500 draws is
		// extremely unlikely to coincide with any single statistic.
		if ch.AcceptRate == 1 {
			t.Logf("chain %d accept rate exactly 1 (possible but suspicious)", c)
		}
	}
	// One segment and a checked run must agree on the accounting.
	checked := Run(Config{Chains: 2, Iterations: 500, Sampler: HMC, Seed: 8,
		StopRule: neverFire{}}, func() Target { return newGaussian() })
	for c := range res.Chains {
		if res.Chains[c].AcceptRate != checked.Chains[c].AcceptRate {
			t.Errorf("chain %d: one segment %v vs checked %v accept rate",
				c, res.Chains[c].AcceptRate, checked.Chains[c].AcceptRate)
		}
	}
}

// rejectAll is a target whose density is -Inf everywhere, so
// initialization can never find a finite starting point.
type rejectAll struct{}

func (rejectAll) Dim() int { return 2 }
func (rejectAll) LogDensityGrad(q, grad []float64) float64 {
	for i := range grad {
		grad[i] = 0
	}
	return math.Inf(-1)
}
func (rejectAll) LogDensity(q []float64) float64 { return math.Inf(-1) }

// TestInitFallbackSurfaced guards the initPoint fix: a chain that falls
// back to the all-zeros start must say so on its result.
func TestInitFallbackSurfaced(t *testing.T) {
	res := Run(Config{Chains: 2, Iterations: 10, Sampler: MetropolisHastings, Seed: 3},
		func() Target { return rejectAll{} })
	for c, ch := range res.Chains {
		if !ch.InitFallback {
			t.Errorf("chain %d: fallback to origin not surfaced", c)
		}
	}
	ok := Run(Config{Chains: 2, Iterations: 10, Sampler: MetropolisHastings, Seed: 3},
		func() Target { return newGaussian() })
	for c, ch := range ok.Chains {
		if ch.InitFallback {
			t.Errorf("chain %d: spurious fallback flag on a finite density", c)
		}
	}
}

// TestChainsMeetOnlyAtSegmentEnds: with a StopRule consulted every 50
// iterations, chain 1 runs from iteration 5 to iteration 40 while chain 0
// is parked — no per-iteration barrier holds it back — and the parking
// leaves every draw bit-identical. A barrier would leave chain 0 parked
// until the timeout, whose panic quarantines it.
func TestChainsMeetOnlyAtSegmentEnds(t *testing.T) {
	cfg := Config{Chains: 2, Iterations: 100, Sampler: HMC, Seed: 5, StopRule: neverFire{}, Parallel: true}
	target := func() Target { return newGaussian() }
	ref := Run(cfg, target)

	reached := make(chan struct{})
	cfg.FaultHook = func(chain, iter int) FaultAction {
		switch {
		case chain == 1 && iter == 40:
			close(reached)
		case chain == 0 && iter == 5:
			select {
			case <-reached:
			case <-time.After(5 * time.Second):
				panic("chain 1 never started iteration 40 while chain 0 was parked at 5")
			}
		}
		return FaultActNone
	}
	parked := Run(cfg, target)
	if f := parked.Faults(); len(f) != 0 {
		t.Fatalf("faults: %v", f)
	}
	sameDraws(t, "parked-vs-unparked", ref, parked)
}
