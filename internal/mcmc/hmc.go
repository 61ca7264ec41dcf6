package mcmc

import (
	"math"

	"bayessuite/internal/rng"
)

// hamiltonian bundles the pieces shared by static HMC and NUTS: the
// leapfrog integrator over the target with a diagonal mass matrix, and the
// reasonable-epsilon heuristic of Hoffman & Gelman.
type hamiltonian struct {
	target  Target
	invMass []float64 // inverse diagonal mass matrix == posterior variances
	dim     int
	scratch *bufPool // per-chain scratch vectors (no locking needed)
}

func newHamiltonian(target Target) *hamiltonian {
	dim := target.Dim()
	inv := make([]float64, dim)
	for i := range inv {
		inv[i] = 1
	}
	return &hamiltonian{target: target, invMass: inv, dim: dim, scratch: newBufPool(dim)}
}

// sampleMomentum draws p ~ N(0, M) into p.
func (h *hamiltonian) sampleMomentum(r *rng.RNG, p []float64) {
	for i := range p {
		p[i] = r.Norm() / math.Sqrt(h.invMass[i])
	}
}

// kinetic returns p^T M^-1 p / 2.
func (h *hamiltonian) kinetic(p []float64) float64 {
	s := 0.0
	for i, v := range p {
		s += v * v * h.invMass[i]
	}
	return 0.5 * s
}

// leapfrog advances (q, p) one step of size eps; grad must hold the
// gradient at q on entry and holds the gradient at the new q on exit.
// It returns the new log density.
func (h *hamiltonian) leapfrog(q, p, grad []float64, eps float64) float64 {
	for i := range p {
		p[i] += 0.5 * eps * grad[i]
	}
	for i := range q {
		q[i] += eps * h.invMass[i] * p[i]
	}
	lp := h.target.LogDensityGrad(q, grad)
	for i := range p {
		p[i] += 0.5 * eps * grad[i]
	}
	return lp
}

// findReasonableEpsilon implements Algorithm 4 of Hoffman & Gelman: double
// or halve eps until one leapfrog step changes the joint density by about
// a factor of 1/2. lp0 and grad0 are the log density and its gradient at
// q0, which the caller has just evaluated; every probe starts from them.
func (h *hamiltonian) findReasonableEpsilon(q0 []float64, lp0 float64, grad0 []float64, r *rng.RNG) float64 {
	if math.IsInf(lp0, -1) {
		return 0.1
	}
	eps := 1.0
	h.scratch.reset()
	q := h.scratch.get()
	p := h.scratch.get()
	grad := h.scratch.get()
	pTry := h.scratch.get()
	h.sampleMomentum(r, p)
	joint0 := lp0 - h.kinetic(p)

	step := func() float64 {
		copy(q, q0)
		copy(grad, grad0)
		copy(pTry, p)
		lpNew := h.leapfrog(q, pTry, grad, eps)
		return lpNew - h.kinetic(pTry)
	}

	joint := step()
	var a float64 = -1
	if joint-joint0 > math.Log(0.5) {
		a = 1
	}
	for i := 0; i < 50; i++ {
		if a*(joint-joint0) <= a*math.Log(0.5) {
			break
		}
		eps *= math.Pow(2, a)
		joint = step()
		if math.IsNaN(joint) || math.IsInf(joint, -1) && a > 0 {
			eps /= 2
			break
		}
	}
	if eps <= 0 || math.IsNaN(eps) {
		eps = 0.1
	}
	return eps
}

// hamiltonianChain is the chain state static HMC and NUTS share, as Stan's
// two transitions share one step-size and diagonal-metric adapter: the
// current point with its gradient and log density, the step size, the
// dual-averaging and Welford accumulators of warm-up, and the checkpoint
// snapshot of all of it. The samplers embed it and add only their
// transition (Step) and its scratch.
type hamiltonianChain struct {
	ham *hamiltonian
	r   *rng.RNG

	q, grad []float64
	lp      float64

	eps   float64
	da    *dualAveraging
	wf    *welford
	sched warmupSchedule

	iter       int
	warmup     int
	lastAccept float64
	divergent  bool
}

func newHamiltonianChain(target Target, r *rng.RNG, warmup int) hamiltonianChain {
	dim := target.Dim()
	return hamiltonianChain{
		ham:    newHamiltonian(target),
		r:      r,
		q:      make([]float64, dim),
		grad:   make([]float64, dim),
		wf:     newWelford(dim),
		sched:  newWarmupSchedule(warmup),
		warmup: warmup,
	}
}

func (s *hamiltonianChain) Init(q []float64) {
	copy(s.q, q)
	s.lp = s.ham.target.LogDensityGrad(s.q, s.grad)
	s.eps = s.ham.findReasonableEpsilon(s.q, s.lp, s.grad, s.r)
	s.da = newDualAveraging(s.eps, targetAccept)
}

func (s *hamiltonianChain) Current() []float64 { return s.q }

func (s *hamiltonianChain) adapt(accept float64) {
	if s.iter >= s.warmup {
		return
	}
	if math.IsNaN(accept) {
		// A NaN acceptance statistic would poison the dual-averaging
		// state (and through it every later step size) permanently;
		// treat it as a hard rejection instead.
		accept = 0
	}
	s.eps = s.da.update(accept)
	if s.sched.inSlowWindow(s.iter) {
		s.wf.add(s.q)
	}
	if s.sched.windowEnd(s.iter) {
		s.wf.variance(s.ham.invMass)
		s.wf.reset()
		s.da.restart(s.eps)
	}
	if s.iter == s.warmup-1 {
		s.eps = s.da.adapted()
	}
}

// EndWarmup freezes the step size at its dual-averaged value when warm-up
// was cut short; after a full warm-up adapt has already frozen it.
func (s *hamiltonianChain) EndWarmup() {
	if s.da != nil && s.iter < s.warmup {
		s.eps = s.da.adapted()
	}
}
func (s *hamiltonianChain) AcceptStat() float64 { return s.lastAccept }
func (s *hamiltonianChain) StepSize() float64   { return s.eps }
func (s *hamiltonianChain) Divergent() bool     { return s.divergent }

func (s *hamiltonianChain) snapshot(dst *SamplerState) {
	*dst = SamplerState{
		RNG:         s.r.State(),
		Q:           append([]float64(nil), s.q...),
		Grad:        append([]float64(nil), s.grad...),
		LogP:        s.lp,
		Iter:        s.iter,
		LastAccept:  s.lastAccept,
		StepSize:    s.eps,
		InvMass:     append([]float64(nil), s.ham.invMass...),
		DualAvg:     s.da.state(),
		WelfordN:    s.wf.n,
		WelfordMean: append([]float64(nil), s.wf.mean...),
		WelfordM2:   append([]float64(nil), s.wf.m2...),
	}
}

func (s *hamiltonianChain) restore(src *SamplerState) {
	s.r.Restore(src.RNG)
	copy(s.q, src.Q)
	copy(s.grad, src.Grad)
	s.lp = src.LogP
	s.iter = src.Iter
	s.lastAccept = src.LastAccept
	s.eps = src.StepSize
	copy(s.ham.invMass, src.InvMass)
	s.da = newDualAveraging(src.StepSize, targetAccept)
	s.da.restoreState(src.DualAvg)
	s.wf.n = src.WelfordN
	copy(s.wf.mean, src.WelfordMean)
	copy(s.wf.m2, src.WelfordM2)
}

// hmcSampler is static-path HMC: each iteration integrates for a fixed
// total time (intTime), so the number of leapfrog steps is intTime/eps.
type hmcSampler struct {
	hamiltonianChain
	p, qNew, gradNew, pNew []float64
}

func newHMCSampler(target Target, r *rng.RNG, warmup int) *hmcSampler {
	dim := target.Dim()
	return &hmcSampler{
		hamiltonianChain: newHamiltonianChain(target, r, warmup),
		p:                make([]float64, dim),
		qNew:             make([]float64, dim),
		gradNew:          make([]float64, dim),
		pNew:             make([]float64, dim),
	}
}

func (s *hmcSampler) Step() (float64, int64) {
	var work int64
	s.divergent = false
	s.ham.sampleMomentum(s.r, s.p)
	joint0 := s.lp - s.ham.kinetic(s.p)

	nSteps := int(math.Max(1, math.Round(intTime/s.eps)))
	if nSteps > 1024 {
		nSteps = 1024
	}
	copy(s.qNew, s.q)
	copy(s.gradNew, s.grad)
	p := s.pNew
	copy(p, s.p)
	lp := s.lp
	for i := 0; i < nSteps; i++ {
		lp = s.ham.leapfrog(s.qNew, p, s.gradNew, s.eps)
		work++
		if math.IsInf(lp, -1) || math.IsNaN(lp) {
			// Abandon the trajectory on any non-finite density. A NaN
			// must not keep integrating: the positions and momenta it
			// produces are garbage, and the proposal below is rejected
			// explicitly rather than through NaN comparison semantics.
			break
		}
	}
	joint := lp - s.ham.kinetic(p)
	accept := math.Exp(math.Min(0, joint-joint0))
	if math.IsNaN(lp) || math.IsNaN(accept) {
		// Explicit non-finite rejection: the proposal never competes.
		accept = 0
	}
	if joint-joint0 < -1000 {
		s.divergent = true
		accept = 0
	}
	if s.r.Float64() < accept {
		copy(s.q, s.qNew)
		copy(s.grad, s.gradNew)
		s.lp = lp
	}
	s.lastAccept = accept
	s.adapt(accept)
	s.iter++
	return s.lp, work
}
