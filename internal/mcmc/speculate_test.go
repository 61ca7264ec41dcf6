package mcmc

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestSpeculationDeterminism is speculation's hard contract: draws are
// bit-identical with speculation on or off — for both gradient samplers,
// at every GOMAXPROCS (one lane, two lanes, a lane per chain: riders
// claimed by concurrent batches), on a fresh run, across a mid-run
// checkpoint/resume, and with a chain quarantined mid-run.
func TestSpeculationDeterminism(t *testing.T) {
	m := newBatchedGLMModel(1200, 2, 5, 41)
	base := Config{
		Chains: 4, Iterations: 120, Seed: 23, IntTime: 0.3,
		StopRule: neverFire{}, Parallel: true,
	}
	for _, kind := range []SamplerKind{HMC, NUTS} {
		for _, par := range []int{1, 2, 8} {
			kind, par := kind, par
			t.Run(fmt.Sprintf("%s/par%d", kind, par), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
				cfg := base
				cfg.Sampler = kind
				off, _ := runBatched(t, m, cfg)

				onCfg := cfg
				onCfg.Speculate = true
				on, be := runBatched(t, m, onCfg)
				sameDraws(t, "fresh spec-on vs spec-off", off, on)

				gb := on.GradBatch
				if gb == nil {
					t.Fatal("speculating run reported no GradBatch accounting")
				}
				if gb.SpecRows == 0 {
					t.Fatal("speculation enabled but no speculative rows were evaluated")
				}
				if gb.SpecCommitted+gb.SpecDiscarded != gb.SpecRows {
					t.Errorf("speculation accounting leak: %d committed + %d discarded != %d rows",
						gb.SpecCommitted, gb.SpecDiscarded, gb.SpecRows)
				}
				if be.SpecRows() != gb.SpecRows {
					t.Errorf("kernel-layer spec split %d != coalescer %d", be.SpecRows(), gb.SpecRows)
				}
				if gb.SpecCommitted == 0 {
					t.Error("exact-replay predictions never hit the cache")
				}

				// Checkpoint mid-run with speculation on, resume with it on:
				// the resumed run must still match the spec-off fresh run.
				var cks []*Checkpoint
				ckCfg := onCfg
				ckCfg.CheckpointEvery = 40
				ckCfg.CheckpointSink = collectSink(&cks)
				runBatched(t, m, ckCfg)
				if len(cks) == 0 {
					t.Fatal("no checkpoints captured")
				}
				resCfg := onCfg
				resCfg.ResumeFrom = cks[0]
				resumed, _ := runBatched(t, m, resCfg)
				sameDraws(t, "checkpoint-resume spec-on vs fresh spec-off", off, resumed)

				// Quarantine a chain mid-run: faulted chains stop
				// speculating, survivors keep going, draws still match.
				hook := func(chain, iter int) FaultAction {
					if chain == 1 && iter == 50 {
						return FaultActNonFinite
					}
					return FaultActNone
				}
				qOffCfg := cfg
				qOffCfg.FaultHook = hook
				qOff, _ := runBatched(t, m, qOffCfg)
				qOnCfg := onCfg
				qOnCfg.FaultHook = hook
				qOn, _ := runBatched(t, m, qOnCfg)
				sameDraws(t, "quarantine spec-on vs spec-off", qOff, qOn)
				if qOn.Chains[1].Fault == nil {
					t.Error("chain 1 was not quarantined under speculation")
				}
			})
		}
	}
}

// TestSpeculationForcedMiss proves the miss path: predictions are exact
// by construction, so the test corrupts every 5th prefetch entry's step-
// size key, forcing the owning chain to miss and flush. Misses must be
// silent — same draws, and every speculated row accounted for as either
// committed or discarded.
func TestSpeculationForcedMiss(t *testing.T) {
	m := newBatchedGLMModel(1200, 2, 5, 43)
	base := Config{
		Chains: 4, Iterations: 120, Seed: 29, Sampler: HMC, IntTime: 0.3,
		StopRule: neverFire{}, Parallel: true,
	}
	off, _ := runBatched(t, m, base)

	missCfg := base
	missCfg.Speculate = true
	missCfg.specForceMissEvery = 5
	missed, _ := runBatched(t, m, missCfg)
	sameDraws(t, "forced-miss spec-on vs spec-off", off, missed)

	gb := missed.GradBatch
	if gb == nil || gb.SpecRows == 0 {
		t.Fatal("forced-miss run never speculated")
	}
	if gb.SpecDiscarded == 0 {
		t.Error("key corruption produced no discards — the miss path never ran")
	}
	if gb.SpecCommitted == 0 {
		t.Error("no hits survived between forced misses")
	}
	if gb.SpecCommitted+gb.SpecDiscarded != gb.SpecRows {
		t.Errorf("miss accounting leak: %d committed + %d discarded != %d rows",
			gb.SpecCommitted, gb.SpecDiscarded, gb.SpecRows)
	}
}

// scriptedSpecStepper drives the coalescer's speculation machinery
// directly: it predicts positions from a deterministic counter so a test
// can replay the exact request stream (hits) or diverge from it (misses).
type scriptedSpecStepper struct {
	dim     int
	next    float64 // value the next prediction writes into every slot
	pending bool
	dead    bool
	aborts  int
}

func (s *scriptedSpecStepper) Init([]float64)         {}
func (s *scriptedSpecStepper) Step() (float64, int64) { return 0, 0 }
func (s *scriptedSpecStepper) Current() []float64     { return nil }
func (s *scriptedSpecStepper) EndWarmup()             {}
func (s *scriptedSpecStepper) AcceptStat() float64    { return 0 }
func (s *scriptedSpecStepper) StepSize() float64      { return 1 }
func (s *scriptedSpecStepper) Divergent() bool        { return false }
func (s *scriptedSpecStepper) snapshot(*SamplerState) {}
func (s *scriptedSpecStepper) restore(*SamplerState)  {}
func (s *scriptedSpecStepper) specReset() bool        { s.dead = false; s.pending = false; return true }
func (s *scriptedSpecStepper) specStepSize() float64  { return 1 }
func (s *scriptedSpecStepper) specAbort()             { s.pending = false; s.dead = true; s.aborts++ }
func (s *scriptedSpecStepper) specFeed(float64, []float64) {
	s.pending = false
	s.next++
}
func (s *scriptedSpecStepper) speculate(dst []float64) bool {
	if s.dead || s.pending {
		return false
	}
	for i := range dst {
		dst[i] = s.next
	}
	s.pending = true
	return true
}

// newSpecHarness wires a 2-chain coalescer where chain 0 submits real
// rows and chain 1 runs a scripted shadow, so the fill/settle/probe
// cycle can be driven synchronously from the test.
func newSpecHarness() (*gradCoalescer, *scriptedSpecStepper) {
	eval := func(qs, grads [][]float64, lps []float64) {
		for c, q := range qs {
			if q == nil {
				continue
			}
			lps[c] = 10 * q[0]
			for i := range grads[c] {
				grads[c][i] = q[0] + float64(i)
			}
		}
	}
	co := newGradCoalescer(2, 1, eval, nil)
	sc := &scriptedSpecStepper{dim: 2}
	co.enableSpeculation([]stepper{sc, sc}, 2, nil)
	return co, sc
}

// TestSpeculationHitPath drives the coalescer's speculation cycle
// directly: a prediction filled into an empty slot must come back as a
// bit-exact cache hit carrying the fused sweep's results.
func TestSpeculationHitPath(t *testing.T) {
	co, sc := newSpecHarness()
	q0, g0 := []float64{1, 1}, []float64{0, 0}

	// Round 1: chain 1 idle+eligible, chain 0's submit fires the batch.
	co.arm([]bool{true, true})
	co.leave(1, true)
	lp := co.submit(0, q0, g0)
	co.leave(0, true)
	if lp != 10 {
		t.Fatalf("real row lp %v, want 10", lp)
	}
	if co.rings[1].n != 1 {
		t.Fatalf("prefetch ring holds %d entries, want 1", co.rings[1].n)
	}

	// Round 2: chain 1 requests exactly the predicted position — hit.
	co.arm([]bool{true, true})
	probeQ := []float64{0, 0} // scripted prediction was next=0 in every slot
	grad := []float64{0, 0}
	hlp, ok := co.probe(1, probeQ, grad)
	if !ok {
		t.Fatal("bit-exact probe missed")
	}
	if hlp != 0 || grad[0] != 0 || grad[1] != 1 {
		t.Fatalf("hit returned lp=%v grad=%v, want lp=0 grad=[0 1]", hlp, grad)
	}
	// A stale later probe (different position) must miss silently.
	if _, ok := co.probe(1, []float64{99, 99}, grad); ok {
		t.Fatal("mismatched probe hit")
	}
	co.leave(1, true)
	co.submit(0, q0, g0)
	co.leave(0, true)

	rep := co.report()
	if rep.SpecCommitted != 1 {
		t.Errorf("committed %d, want 1", rep.SpecCommitted)
	}
	if rep.SpecRows != rep.SpecCommitted+rep.SpecDiscarded {
		t.Errorf("accounting leak: rows %d != %d committed + %d discarded",
			rep.SpecRows, rep.SpecCommitted, rep.SpecDiscarded)
	}
	_ = sc
}

// TestSpeculationSteadyStateZeroAlloc guards the speculation fast path:
// once the rings are warm, a full round cycle — fill, fused sweep,
// bit-exact probe hit — must not allocate.
func TestSpeculationSteadyStateZeroAlloc(t *testing.T) {
	co, sc := newSpecHarness()
	q0, g0 := []float64{1, 1}, []float64{0, 0}
	probeQ := make([]float64, 2)
	probeGrad := make([]float64, 2)
	consumed := 0.0
	cycle := func() {
		co.arm([]bool{true, true})
		// Chain 1 consumes its prefetch from the previous round (warm
		// rings always hold one), then leaves and re-speculates.
		if co.rings[1].n > 0 {
			probeQ[0], probeQ[1] = consumed, consumed
			if _, ok := co.probe(1, probeQ, probeGrad); !ok {
				t.Fatal("steady-state probe missed")
			}
			consumed++
		}
		co.leave(1, true)
		co.submit(0, q0, g0)
		co.leave(0, true)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(300, cycle); avg != 0 {
		t.Errorf("speculation round cycle allocates %.1f per round, want 0", avg)
	}
	_ = sc
}

// TestFaultSpeculativeRowPanic: a panic inside a fused evaluation that
// carries speculative rows must retry once without them — quarantining
// nobody, poisoning no cache entry — and only a repeat failure counts
// against the real members.
func TestFaultSpeculativeRowPanic(t *testing.T) {
	evals := 0
	eval := func(qs, grads [][]float64, lps []float64) {
		evals++
		if qs[1] != nil {
			// The speculative row (chain 1 is idle) triggers the fault.
			panic("speculative row fault")
		}
		for c, q := range qs {
			if q == nil {
				continue
			}
			lps[c] = 7
			for i := range grads[c] {
				grads[c][i] = 1
			}
		}
	}
	co := newGradCoalescer(2, 1, eval, nil)
	sc := &scriptedSpecStepper{dim: 2}
	co.enableSpeculation([]stepper{sc, sc}, 2, nil)

	co.arm([]bool{true, true})
	co.leave(1, true)
	lp := co.submit(0, []float64{1, 1}, []float64{0, 0})
	co.leave(0, true)

	if evals != 2 {
		t.Fatalf("eval ran %d times, want 2 (fault, then retry without spec rows)", evals)
	}
	if math.IsNaN(lp) || lp != 7 {
		t.Fatalf("real member got lp %v after retry, want 7 (no NaN poisoning)", lp)
	}
	if co.rings[1].n != 0 {
		t.Errorf("faulted speculative row left %d ring entries (cache poisoned)", co.rings[1].n)
	}
	if sc.aborts == 0 {
		t.Error("shadow was not aborted after its row was dropped")
	}
	rep := co.report()
	if rep.SpecRows != 0 || rep.SpecCommitted != 0 {
		t.Errorf("dropped speculative rows leaked into accounting: %+v", rep)
	}
	if rep.Sweeps != 1 {
		t.Errorf("sweeps %d, want 1 (only the clean retry counts)", rep.Sweeps)
	}
	if rep.RealRows != 1 {
		t.Errorf("real rows %d, want 1", rep.RealRows)
	}
}

// TestFaultSpeculativeRealRowPanic: when the retry without speculative
// rows ALSO fails, the fault is the real members' — the submitter sees
// the panic, exactly like the non-speculative fault path.
func TestFaultSpeculativeRealRowPanic(t *testing.T) {
	eval := func(qs, grads [][]float64, lps []float64) {
		panic("kernel fault")
	}
	co := newGradCoalescer(2, 1, eval, nil)
	sc := &scriptedSpecStepper{dim: 2}
	co.enableSpeculation([]stepper{sc, sc}, 2, nil)

	co.arm([]bool{true, true})
	co.leave(1, true)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		co.submit(0, []float64{1, 1}, []float64{0, 0})
	}()
	co.leave(0, true)
	if recovered != "kernel fault" {
		t.Fatalf("submitter recovered %v, want the kernel fault", recovered)
	}
	rep := co.report()
	if rep.Sweeps != 0 {
		t.Errorf("sweeps %d, want 0 (no eval completed)", rep.Sweeps)
	}
	if rep.SpecRows != 0 {
		t.Errorf("spec rows %d, want 0", rep.SpecRows)
	}
}
