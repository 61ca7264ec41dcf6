package mcmc

import (
	"math"

	"bayessuite/internal/rng"
)

// nutsSampler implements the No-U-Turn Sampler of Hoffman & Gelman (2014),
// Algorithm 6 (the slice variant with dual averaging), which is what Stan
// 2.17 — the framework the paper characterizes — runs. Each iteration
// recursively doubles a trajectory until the path makes a "U-turn" or
// diverges; the per-iteration work (leapfrog steps) therefore varies with
// the local geometry, which is exactly what creates the paper's
// chain-latency imbalance (§VI-A).
type nutsSampler struct {
	hamiltonianChain

	// Scratch reused across iterations: the trajectory endpoints and the
	// per-iteration arenas for subtree endpoint states and proposal
	// vectors. Everything handed out during one Step is reclaimed at the
	// start of the next, so steady-state iterations do not allocate.
	minus  *treeState
	plus   *treeState
	states *statePool
	bufs   *bufPool
}

// treeState carries one endpoint of a NUTS trajectory.
type treeState struct {
	q, p, grad []float64
	lp         float64
}

func newTreeState(dim int) *treeState {
	return &treeState{
		q:    make([]float64, dim),
		p:    make([]float64, dim),
		grad: make([]float64, dim),
	}
}

func (t *treeState) copyFrom(s *treeState) {
	copy(t.q, s.q)
	copy(t.p, s.p)
	copy(t.grad, s.grad)
	t.lp = s.lp
}

func newNUTSSampler(target Target, r *rng.RNG, warmup int) *nutsSampler {
	dim := target.Dim()
	return &nutsSampler{
		hamiltonianChain: newHamiltonianChain(target, r, warmup),
		minus:            newTreeState(dim),
		plus:             newTreeState(dim),
		states:           newStatePool(dim),
		bufs:             newBufPool(dim),
	}
}

// buildResult aggregates what a subtree hands back up the recursion,
// including the subtree's own trajectory-order endpoints, which the
// Hoffman-Gelman stopping criterion compares.
type buildResult struct {
	qProp    []float64 // proposed point (nil if none valid)
	lpProp   float64
	gradProp []float64
	minus    *treeState // backward-most state of this subtree
	plus     *treeState // forward-most state of this subtree
	n        int        // number of valid points in the slice
	ok       bool       // subtree free of U-turns and divergences
	alpha    float64    // sum of acceptance statistics
	nAlpha   int        // count for alpha average
	work     int64      // leapfrog steps taken
}

// uTurn reports whether the trajectory between minus and plus endpoints
// has turned back on itself (the generalized criterion with the mass
// metric).
func (s *nutsSampler) uTurn(minus, plus *treeState) bool {
	dotM, dotP := 0.0, 0.0
	for i := range minus.q {
		dq := plus.q[i] - minus.q[i]
		dotM += dq * s.ham.invMass[i] * minus.p[i]
		dotP += dq * s.ham.invMass[i] * plus.p[i]
	}
	return dotM < 0 || dotP < 0
}

const deltaMax = 1000.0 // divergence threshold of Hoffman & Gelman

// buildTree recursively builds a subtree of the given depth in the given
// direction (dir = +1/-1) starting from st, which is mutated to the new
// frontier. logU is the slice variable, joint0 the initial joint density.
func (s *nutsSampler) buildTree(st *treeState, logU float64, dir float64, depth int, joint0 float64) buildResult {
	if depth == 0 {
		// Base case: one leapfrog step in direction dir.
		lp := s.ham.leapfrog(st.q, st.p, st.grad, dir*s.eps)
		st.lp = lp
		joint := lp - s.ham.kinetic(st.p)
		var res buildResult
		res.work = 1
		res.nAlpha = 1
		if math.IsNaN(lp) || math.IsNaN(joint) {
			// Explicit non-finite rejection: a NaN density or kinetic
			// energy marks the frontier state divergent (joint → -Inf
			// fails both the slice test and the divergence check below)
			// instead of leaking NaN into the multinomial weights.
			joint = math.Inf(-1)
		}
		a := math.Exp(math.Min(0, joint-joint0))
		res.alpha = a
		if logU <= joint {
			res.n = 1
			res.qProp = s.bufs.get()
			copy(res.qProp, st.q)
			res.gradProp = s.bufs.get()
			copy(res.gradProp, st.grad)
			res.lpProp = lp
		}
		endpoint := s.states.get()
		endpoint.copyFrom(st)
		res.minus = endpoint
		res.plus = endpoint
		res.ok = logU-deltaMax < joint
		if !res.ok {
			s.divergent = true
		}
		return res
	}

	// Recursion: build the two half-subtrees, both extending the frontier
	// in the same direction.
	first := s.buildTree(st, logU, dir, depth-1, joint0)
	if !first.ok {
		return first
	}
	second := s.buildTree(st, logU, dir, depth-1, joint0)

	res := buildResult{
		n:      first.n + second.n,
		alpha:  first.alpha + second.alpha,
		nAlpha: first.nAlpha + second.nAlpha,
		work:   first.work + second.work,
	}
	// Progressive choice between subtree proposals (Algorithm 6 keeps the
	// second subtree's proposal with probability n''/(n'+n'')).
	res.qProp, res.lpProp, res.gradProp = first.qProp, first.lpProp, first.gradProp
	if second.n > 0 {
		if first.n == 0 || s.r.Float64() < float64(second.n)/float64(first.n+second.n) {
			res.qProp, res.lpProp, res.gradProp = second.qProp, second.lpProp, second.gradProp
		}
	}
	// Combined endpoints in trajectory order.
	if dir > 0 {
		res.minus, res.plus = first.minus, second.plus
	} else {
		res.minus, res.plus = second.minus, first.plus
	}
	res.ok = second.ok && !s.uTurn(res.minus, res.plus)
	return res
}

func (s *nutsSampler) Step() (float64, int64) {
	s.divergent = false
	var work int64

	s.states.reset()
	s.bufs.reset()
	minus := s.minus
	plus := s.plus
	copy(minus.q, s.q)
	copy(minus.grad, s.grad)
	minus.lp = s.lp
	s.ham.sampleMomentum(s.r, minus.p)
	copy(plus.q, minus.q)
	copy(plus.p, minus.p)
	copy(plus.grad, minus.grad)
	plus.lp = minus.lp

	joint0 := s.lp - s.ham.kinetic(minus.p)
	// Slice variable: log u = joint0 - Exp(1).
	logU := joint0 - s.r.Exp()

	n := 1
	ok := true
	var sumAlpha float64
	var nAlpha int
	depth := 0

	for ok && depth < maxDepth {
		dir := 1.0
		if s.r.Float64() < 0.5 {
			dir = -1.0
		}
		var res buildResult
		if dir > 0 {
			res = s.buildTree(plus, logU, dir, depth, joint0)
		} else {
			res = s.buildTree(minus, logU, dir, depth, joint0)
		}
		work += res.work
		sumAlpha += res.alpha
		nAlpha += res.nAlpha
		if res.ok && res.n > 0 {
			if s.r.Float64() < float64(res.n)/float64(n) {
				copy(s.q, res.qProp)
				copy(s.grad, res.gradProp)
				s.lp = res.lpProp
			}
		}
		n += res.n
		ok = res.ok && !s.uTurn(minus, plus)
		depth++
	}

	accept := 0.0
	if nAlpha > 0 {
		accept = sumAlpha / float64(nAlpha)
	}
	s.lastAccept = accept
	s.adapt(accept)
	s.iter++
	return s.lp, work
}
