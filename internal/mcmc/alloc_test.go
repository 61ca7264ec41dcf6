package mcmc

import (
	"testing"

	"bayessuite/internal/rng"
)

// allocTarget is a 16-dim standard Gaussian with allocation-free
// evaluation, isolating the sampler's own allocation behaviour.
type allocTarget struct{}

func (allocTarget) Dim() int { return 16 }
func (allocTarget) LogDensityGrad(q, grad []float64) float64 {
	lp := 0.0
	for i := range q {
		lp += -0.5 * q[i] * q[i]
		grad[i] = -q[i]
	}
	return lp
}
func (allocTarget) LogDensity(q []float64) float64 {
	lp := 0.0
	for i := range q {
		lp += -0.5 * q[i] * q[i]
	}
	return lp
}

// TestStepAllocsZero is the zero-steady-state-allocation guarantee for the
// sampling hot path: after warmup has sized every scratch pool, one
// iteration — Step plus recording the draw into the flat sample buffer —
// must not allocate, for each sampler kind.
func TestStepAllocsZero(t *testing.T) {
	for _, kind := range []SamplerKind{HMC, NUTS, MetropolisHastings} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Sampler: kind, Iterations: 4096}.withDefaults()
			target := allocTarget{}
			st := newStepper(cfg, target, rng.NewStream(19, 0), 500)
			q0, _ := initPoint(target, rng.NewStream(20, 0))
			st.Init(q0)
			samples := NewSamples(target.Dim(), 4096)
			logDensity := make([]float64, 0, 4096)
			work := make([]int64, 0, 4096)
			// Warmup: complete adaptation and let every pool reach its
			// high-water mark.
			for i := 0; i < 1500; i++ {
				lp, w := st.Step()
				samples.Append(st.Current())
				logDensity = append(logDensity, lp)
				work = append(work, w)
			}
			avg := testing.AllocsPerRun(500, func() {
				lp, w := st.Step()
				samples.Append(st.Current())
				logDensity = append(logDensity, lp)
				work = append(work, w)
			})
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per steady-state iteration, want 0", kind, avg)
			}
		})
	}
}
