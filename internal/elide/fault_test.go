package elide

import (
	"math"
	"testing"

	"bayessuite/internal/mcmc"
)

// stdNormal is a small diagonal Gaussian target for the quarantine tests.
type stdNormal struct{}

func (stdNormal) Dim() int { return 3 }
func (stdNormal) LogDensityGrad(q, grad []float64) float64 {
	lp := 0.0
	for i := range q {
		lp += -0.5 * q[i] * q[i]
		grad[i] = -q[i]
	}
	return lp
}
func (n stdNormal) LogDensity(q []float64) float64 {
	grad := make([]float64, 3)
	return n.LogDensityGrad(q, grad)
}

// TestElisionWithQuarantinedChain: a chain quarantined mid-run drops out
// of the convergence checks; the detector's streaming R̂ over the
// survivors must still match the batch recomputation at every checkpoint,
// and elision must still fire on the surviving chains.
func TestElisionWithQuarantinedChain(t *testing.T) {
	// The fault lands before the runner's first check at iteration 100,
	// so every check runs over the survivors.
	const faultChain, faultIter = 2, 80
	det := NewDetector()
	cfg := mcmc.Config{
		Chains: 4, Iterations: 4000, Sampler: mcmc.NUTS, Seed: 3,
		Parallel: true, StopRule: det,
		FaultHook: func(chain, iter int) mcmc.FaultAction {
			if chain == faultChain && iter == faultIter {
				return mcmc.FaultActNonFinite
			}
			return mcmc.FaultActNone
		},
	}
	res := mcmc.Run(cfg, func() mcmc.Target { return stdNormal{} })

	f := res.Chains[faultChain].Fault
	if f == nil || f.Kind != mcmc.FaultNonFinite || f.Iteration != faultIter {
		t.Fatalf("fault = %+v, want non-finite on chain %d at %d", f, faultChain, faultIter)
	}
	if !res.Elided {
		t.Fatalf("elision did not fire over the survivors (iterations %d)", res.Iterations)
	}
	if res.Iterations >= cfg.Iterations || det.Fired == 0 {
		t.Fatalf("run used %d/%d iterations, fired at %d — nothing elided",
			res.Iterations, cfg.Iterations, det.Fired)
	}

	// Every convergence check ran over the three survivors; the streaming
	// values must match batch recomputation over their draws to 1e-9.
	survivors := make([]*mcmc.Samples, 0, 3)
	for c, ch := range res.Chains {
		if c != faultChain {
			survivors = append(survivors, ch.Samples)
		}
	}
	if len(det.Trace) == 0 {
		t.Fatal("detector recorded no checks")
	}
	for _, cp := range det.Trace {
		if cp.Iteration <= faultIter {
			t.Fatalf("check at %d predates the first allowed check", cp.Iteration)
		}
		want := batchWindowRHat(survivors, cp.Iteration)
		if math.Abs(cp.RHat-want) > 1e-9 {
			t.Errorf("iter %d: stream %.12f batch %.12f (diff %.3g)",
				cp.Iteration, cp.RHat, want, math.Abs(cp.RHat-want))
		}
	}
}

// TestDetectorSurvivesChainSetShrink drives one Detector through the
// quarantine transition directly: checks over four chains, then over a
// three-chain subset of the same stores. The incremental state must
// rebuild for the survivor set and match batch from the first
// post-shrink check onward.
func TestDetectorSurvivesChainSetShrink(t *testing.T) {
	all := fakeChains(4, 1000, 150, 2, 31)
	det := &Detector{Threshold: 0.5} // never fires; records the trace
	for it := 100; it <= 400; it += 100 {
		det.ShouldStop(all, it)
	}
	pre := len(det.Trace)
	if pre != 4 {
		t.Fatalf("pre-shrink trace has %d checks, want 4", pre)
	}
	for _, cp := range det.Trace {
		if want := batchWindowRHat(all, cp.Iteration); math.Abs(cp.RHat-want) > 1e-9 {
			t.Errorf("pre-shrink iter %d: stream %.12f batch %.12f", cp.Iteration, cp.RHat, want)
		}
	}

	survivors := []*mcmc.Samples{all[0], all[1], all[3]} // chain 2 quarantined
	for it := 500; it <= 1000; it += 100 {
		det.ShouldStop(survivors, it)
	}
	post := det.Trace[pre:]
	if len(post) != 6 {
		t.Fatalf("post-shrink trace has %d checks, want 6", len(post))
	}
	for _, cp := range post {
		if want := batchWindowRHat(survivors, cp.Iteration); math.Abs(cp.RHat-want) > 1e-9 {
			t.Errorf("post-shrink iter %d: stream %.12f batch %.12f (diff %.3g)",
				cp.Iteration, cp.RHat, want, math.Abs(cp.RHat-want))
		}
	}
}
