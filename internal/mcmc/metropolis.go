package mcmc

import (
	"math"

	"bayessuite/internal/rng"
)

// mhSampler is the paper's Algorithm 1: random-walk Metropolis-Hastings
// with a spherical Gaussian proposal. During warmup the proposal scale is
// adapted toward the classical 0.234 acceptance rate. It serves as the
// naive baseline against which NUTS's faster convergence is measured.
type mhSampler struct {
	target Target
	r      *rng.RNG

	q    []float64
	prop []float64
	lp   float64

	scale      float64
	warmup     int
	iter       int
	lastAccept float64

	acceptCount float64
	adaptCount  float64
}

func newMHSampler(target Target, r *rng.RNG, scale float64, warmup int) *mhSampler {
	return &mhSampler{
		target: target,
		r:      r,
		q:      make([]float64, target.Dim()),
		prop:   make([]float64, target.Dim()),
		scale:  scale,
		warmup: warmup,
	}
}

func (s *mhSampler) Init(q []float64) {
	copy(s.q, q)
	s.lp = s.target.LogDensity(s.q)
}

func (s *mhSampler) Current() []float64 { return s.q }

func (s *mhSampler) Step() (float64, int64) {
	// Propose theta' ~ q(theta' | theta(t-1))  (Algorithm 1 line 4).
	for i := range s.prop {
		s.prop[i] = s.q[i] + s.scale*s.r.Norm()
	}
	lpProp := s.target.LogDensity(s.prop) // line 5: likelihood x prior
	accept := 0.0
	if math.IsNaN(lpProp) || math.IsInf(lpProp, 1) {
		// Explicitly reject non-finite proposals: a NaN log density must
		// not reach the acceptance test (NaN comparisons happen to
		// reject, but relying on that hides the event) or the scale
		// adaptation below. Burn the uniform so the rejection consumes
		// the same randomness as any other rejected proposal.
		_ = s.r.Float64OO()
	} else if logR := lpProp - s.lp; logR >= 0 || math.Log(s.r.Float64OO()) < logR {
		// u ~ uniform(0,1); accept if u < min{r, 1}  (lines 6-7).
		copy(s.q, s.prop)
		s.lp = lpProp
		accept = 1
	}
	s.lastAccept = accept

	if s.iter < s.warmup {
		// Stochastic-approximation scale adaptation toward 0.234.
		s.adaptCount++
		step := math.Pow(s.adaptCount, -0.6)
		s.scale = math.Exp(math.Log(s.scale) + step*(accept-0.234))
		s.scale = math.Max(s.scale, 1e-6)
	} else {
		s.acceptCount += accept
	}
	s.iter++
	return s.lp, 1 // one density evaluation per iteration
}

func (s *mhSampler) EndWarmup()          {}
func (s *mhSampler) AcceptStat() float64 { return s.lastAccept }
func (s *mhSampler) StepSize() float64   { return s.scale }
func (s *mhSampler) Divergent() bool     { return false }

func (s *mhSampler) snapshot(dst *SamplerState) {
	*dst = SamplerState{
		RNG:         s.r.State(),
		Q:           append([]float64(nil), s.q...),
		LogP:        s.lp,
		Iter:        s.iter,
		LastAccept:  s.lastAccept,
		Scale:       s.scale,
		AcceptCount: s.acceptCount,
		AdaptCount:  s.adaptCount,
	}
}

func (s *mhSampler) restore(src *SamplerState) {
	s.r.Restore(src.RNG)
	copy(s.q, src.Q)
	s.lp = src.LogP
	s.iter = src.Iter
	s.lastAccept = src.LastAccept
	s.scale = src.Scale
	s.acceptCount = src.AcceptCount
	s.adaptCount = src.AdaptCount
}
