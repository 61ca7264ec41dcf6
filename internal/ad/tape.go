// Package ad implements the reverse-mode automatic differentiation tape
// that powers gradient-based inference (HMC/NUTS) in BayesSuite-Go. It
// plays the role Stan's math library plays in the paper: every model's log
// posterior is expressed as tape operations, and one reverse sweep yields
// the full gradient.
//
// Design: a variable is an index into a growing arena of nodes; each node
// records the local partial derivatives with respect to its parents in an
// edge arena. Constants are represented with index -1 and never receive
// adjoints. Fused n-ary operations (dot products, whole-dataset likelihood
// terms) record one node with many edges, which keeps tape sizes — and
// therefore the simulated working set — proportional to the modeled data
// size, exactly the relationship the paper's Figure 3 exploits.
package ad

import "math"

// constIdx marks a Var that carries a plain value with no tape node.
const constIdx = -1

// Var is a value tracked (or not, for constants) on a Tape.
type Var struct {
	idx int32
	val float64
}

// Value returns the numeric value of v.
func (v Var) Value() float64 { return v.val }

// IsConst reports whether v is an untracked constant.
func (v Var) IsConst() bool { return v.idx == constIdx }

type nodeRec struct {
	estart, eend int32
}

type edgeRec struct {
	parent  int32
	partial float64
}

// Tape records the computation graph of one log-density evaluation. A Tape
// is not safe for concurrent use; each Markov chain owns one and calls
// Reset between evaluations so the arenas are reused without reallocation.
type Tape struct {
	nodes []nodeRec
	edges []edgeRec
	adj   []float64
	nIn   int

	// Scratch arenas handed out by Scratch/ScratchVars and reclaimed
	// wholesale by Reset. Fused analytic kernels draw their per-evaluation
	// buffers (parameter values, partial accumulators, shard slots) from
	// here, so the kernel hot path allocates nothing once the arenas reach
	// their high-water mark.
	fscratch []float64
	fnext    int
	vscratch []Var
	vnext    int
}

// NewTape returns an empty tape. hint is a capacity hint in nodes
// (pass 0 if unknown).
func NewTape(hint int) *Tape {
	if hint < 16 {
		hint = 16
	}
	return &Tape{
		nodes: make([]nodeRec, 0, hint),
		edges: make([]edgeRec, 0, 2*hint),
	}
}

// Reset discards all recorded nodes but keeps the arenas' capacity.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.edges = t.edges[:0]
	t.nIn = 0
	t.fnext = 0
	t.vnext = 0
}

// Len returns the number of nodes currently on the tape. The hardware
// model uses this as a proxy for the per-evaluation working set.
func (t *Tape) Len() int { return len(t.nodes) }

// EdgeLen returns the number of edges currently on the tape.
func (t *Tape) EdgeLen() int { return len(t.edges) }

// Const wraps a plain float as an untracked constant.
func Const(v float64) Var { return Var{idx: constIdx, val: v} }

// Input registers vals as the leaf input variables of this evaluation and
// returns them in order. It must be called exactly once per evaluation,
// immediately after Reset.
func (t *Tape) Input(vals []float64) []Var {
	if len(t.nodes) != 0 {
		panic("ad: Input must be called on an empty tape")
	}
	out := make([]Var, len(vals))
	for i, v := range vals {
		out[i] = t.leaf(v)
	}
	t.nIn = len(vals)
	return out
}

// InputInto is like Input but fills a caller-provided slice to avoid
// allocation in hot loops.
func (t *Tape) InputInto(vals []float64, out []Var) {
	if len(t.nodes) != 0 {
		panic("ad: InputInto must be called on an empty tape")
	}
	if len(out) != len(vals) {
		panic("ad: InputInto length mismatch")
	}
	for i, v := range vals {
		out[i] = t.leaf(v)
	}
	t.nIn = len(vals)
}

func (t *Tape) leaf(v float64) Var {
	idx := int32(len(t.nodes))
	e := int32(len(t.edges))
	t.nodes = append(t.nodes, nodeRec{estart: e, eend: e})
	return Var{idx: idx, val: v}
}

// node1 appends a unary-op result node.
func (t *Tape) node1(val float64, p Var, d float64) Var {
	if p.idx == constIdx {
		return Const(val)
	}
	es := int32(len(t.edges))
	t.edges = append(t.edges, edgeRec{parent: p.idx, partial: d})
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, nodeRec{estart: es, eend: es + 1})
	return Var{idx: idx, val: val}
}

// node2 appends a binary-op result node.
func (t *Tape) node2(val float64, p1 Var, d1 float64, p2 Var, d2 float64) Var {
	if p1.idx == constIdx && p2.idx == constIdx {
		return Const(val)
	}
	es := int32(len(t.edges))
	if p1.idx != constIdx {
		t.edges = append(t.edges, edgeRec{parent: p1.idx, partial: d1})
	}
	if p2.idx != constIdx {
		t.edges = append(t.edges, edgeRec{parent: p2.idx, partial: d2})
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, nodeRec{estart: es, eend: int32(len(t.edges))})
	return Var{idx: idx, val: val}
}

// BeginFused starts a fused n-ary node: the caller adds edges with
// FusedEdge and finishes with EndFused. This is how whole-dataset
// likelihood reductions record a single node.
func (t *Tape) BeginFused() int32 { return int32(len(t.edges)) }

// FusedEdge adds one (parent, partial) contribution to the fused node
// under construction. Constant parents are skipped.
func (t *Tape) FusedEdge(p Var, partial float64) {
	if p.idx == constIdx {
		return
	}
	t.edges = append(t.edges, edgeRec{parent: p.idx, partial: partial})
}

// EndFused closes a fused node started at mark and returns it with the
// given value.
func (t *Tape) EndFused(mark int32, val float64) Var {
	if int32(len(t.edges)) == mark {
		return Const(val)
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, nodeRec{estart: mark, eend: int32(len(t.edges))})
	return Var{idx: idx, val: val}
}

// EndFusedSingle is shorthand for a one-edge fused node: a unary function
// of p with the given local partial and value.
func (t *Tape) EndFusedSingle(p Var, partial, val float64) Var {
	return t.node1(val, p, partial)
}

// Custom appends one node whose value and partials were computed outside
// the tape. val is the node value and partials[i] must hold
// d(val)/d(inputs[i]); constant inputs are skipped. This is the escape
// hatch fused analytic kernels use: an entire dataset's log-likelihood
// contributes a single node with O(len(inputs)) edges, so the tape stays
// O(dim) no matter how many observations the kernel swept.
func (t *Tape) Custom(val float64, inputs []Var, partials []float64) Var {
	if len(inputs) != len(partials) {
		panic("ad: Custom inputs/partials length mismatch")
	}
	mark := t.BeginFused()
	for i, in := range inputs {
		t.FusedEdge(in, partials[i])
	}
	return t.EndFused(mark, val)
}

// CustomChecked is Custom for a value and partials a fused kernel computed
// in floats. A NaN value or a non-finite partial is raised as a panic with
// a typed *ErrNonFinite carrying op and the offending input's index; a
// -Inf value passes as an ordinary rejection.
func (t *Tape) CustomChecked(op string, val float64, inputs []Var, partials []float64) Var {
	if err := CheckFinite(op, val, partials); err != nil {
		panic(err)
	}
	return t.Custom(val, inputs, partials)
}

// Scratch hands out an n-length float64 block from the tape's scratch
// arena. Blocks are valid until the next Reset; their contents are
// unspecified (callers must initialise what they read). Once the arena
// reaches its per-evaluation high-water mark, Scratch never allocates.
func (t *Tape) Scratch(n int) []float64 {
	if t.fnext+n > len(t.fscratch) {
		c := 2 * len(t.fscratch)
		if c < t.fnext+n {
			c = t.fnext + n
		}
		// Earlier blocks keep referencing the old backing array, which
		// stays valid; only the arena pointer moves.
		t.fscratch = make([]float64, c)
		t.fnext = 0
	}
	s := t.fscratch[t.fnext : t.fnext+n : t.fnext+n]
	t.fnext += n
	return s
}

// ScratchVars is Scratch for []Var blocks.
func (t *Tape) ScratchVars(n int) []Var {
	if t.vnext+n > len(t.vscratch) {
		c := 2 * len(t.vscratch)
		if c < t.vnext+n {
			c = t.vnext + n
		}
		t.vscratch = make([]Var, c)
		t.vnext = 0
	}
	s := t.vscratch[t.vnext : t.vnext+n : t.vnext+n]
	t.vnext += n
	return s
}

// Grad performs the reverse sweep from out and writes d(out)/d(input_i)
// into grad, which must have length equal to the number of inputs.
func (t *Tape) Grad(out Var, grad []float64) {
	if len(grad) != t.nIn {
		panic("ad: Grad output slice has wrong length")
	}
	if out.idx == constIdx {
		for i := range grad {
			grad[i] = 0
		}
		return
	}
	n := len(t.nodes)
	if cap(t.adj) < n {
		t.adj = make([]float64, n)
	}
	adj := t.adj[:n]
	for i := range adj {
		adj[i] = 0
	}
	adj[out.idx] = 1
	for i := int(out.idx); i >= t.nIn; i-- {
		a := adj[i]
		if a == 0 {
			continue
		}
		nd := t.nodes[i]
		for e := nd.estart; e < nd.eend; e++ {
			ed := t.edges[e]
			adj[ed.parent] += a * ed.partial
		}
	}
	copy(grad, adj[:t.nIn])
}

// ---- Arithmetic ----

// Add returns a + b.
func (t *Tape) Add(a, b Var) Var { return t.node2(a.val+b.val, a, 1, b, 1) }

// Sub returns a - b.
func (t *Tape) Sub(a, b Var) Var { return t.node2(a.val-b.val, a, 1, b, -1) }

// Mul returns a * b.
func (t *Tape) Mul(a, b Var) Var { return t.node2(a.val*b.val, a, b.val, b, a.val) }

// Div returns a / b.
func (t *Tape) Div(a, b Var) Var {
	inv := 1 / b.val
	return t.node2(a.val*inv, a, inv, b, -a.val*inv*inv)
}

// Neg returns -a.
func (t *Tape) Neg(a Var) Var { return t.node1(-a.val, a, -1) }

// AddConst returns a + c.
func (t *Tape) AddConst(a Var, c float64) Var { return t.node1(a.val+c, a, 1) }

// MulConst returns a * c.
func (t *Tape) MulConst(a Var, c float64) Var { return t.node1(a.val*c, a, c) }

// SubFromConst returns c - a.
func (t *Tape) SubFromConst(c float64, a Var) Var { return t.node1(c-a.val, a, -1) }

// ---- Transcendental ----

// Exp returns exp(a).
func (t *Tape) Exp(a Var) Var {
	e := math.Exp(a.val)
	return t.node1(e, a, e)
}

// Log returns log(a).
func (t *Tape) Log(a Var) Var { return t.node1(math.Log(a.val), a, 1/a.val) }

// Log1p returns log(1 + a).
func (t *Tape) Log1p(a Var) Var { return t.node1(math.Log1p(a.val), a, 1/(1+a.val)) }

// Sqrt returns sqrt(a).
func (t *Tape) Sqrt(a Var) Var {
	s := math.Sqrt(a.val)
	return t.node1(s, a, 0.5/s)
}

// Square returns a*a.
func (t *Tape) Square(a Var) Var { return t.node1(a.val*a.val, a, 2*a.val) }

// PowConst returns a^c for constant exponent c.
func (t *Tape) PowConst(a Var, c float64) Var {
	v := math.Pow(a.val, c)
	return t.node1(v, a, c*math.Pow(a.val, c-1))
}

// InvLogit returns the logistic sigmoid of a.
func (t *Tape) InvLogit(a Var) Var {
	var s float64
	if a.val >= 0 {
		z := math.Exp(-a.val)
		s = 1 / (1 + z)
	} else {
		z := math.Exp(a.val)
		s = z / (1 + z)
	}
	return t.node1(s, a, s*(1-s))
}

// Log1pExp returns log(1+exp(a)) (softplus) stably.
func (t *Tape) Log1pExp(a Var) Var {
	var v float64
	switch {
	case a.val > 33.3:
		v = a.val
	case a.val > -37:
		v = math.Log1p(math.Exp(a.val))
	default:
		v = math.Exp(a.val)
	}
	// d/da log(1+e^a) = sigmoid(a)
	var s float64
	if a.val >= 0 {
		z := math.Exp(-a.val)
		s = 1 / (1 + z)
	} else {
		z := math.Exp(a.val)
		s = z / (1 + z)
	}
	return t.node1(v, a, s)
}

// Tanh returns tanh(a).
func (t *Tape) Tanh(a Var) Var {
	v := math.Tanh(a.val)
	return t.node1(v, a, 1-v*v)
}

// Atan returns atan(a).
func (t *Tape) Atan(a Var) Var {
	return t.node1(math.Atan(a.val), a, 1/(1+a.val*a.val))
}

// Erf returns erf(a).
func (t *Tape) Erf(a Var) Var {
	const twoOverSqrtPi = 1.1283791670955125738961589031215451716881012586580
	return t.node1(math.Erf(a.val), a, twoOverSqrtPi*math.Exp(-a.val*a.val))
}

// Abs returns |a| with subgradient sign(a) (0 at 0).
func (t *Tape) Abs(a Var) Var {
	d := 0.0
	if a.val > 0 {
		d = 1
	} else if a.val < 0 {
		d = -1
	}
	return t.node1(math.Abs(a.val), a, d)
}

// ---- Reductions ----

// Sum returns the sum of xs as a single fused node.
func (t *Tape) Sum(xs []Var) Var {
	mark := t.BeginFused()
	s := 0.0
	for _, x := range xs {
		s += x.val
		t.FusedEdge(x, 1)
	}
	return t.EndFused(mark, s)
}

// Dot returns sum_i xs[i]*w[i] for constant weights w as one fused node.
func (t *Tape) Dot(xs []Var, w []float64) Var {
	if len(xs) != len(w) {
		panic("ad: Dot length mismatch")
	}
	mark := t.BeginFused()
	s := 0.0
	for i, x := range xs {
		s += x.val * w[i]
		t.FusedEdge(x, w[i])
	}
	return t.EndFused(mark, s)
}

// DotVV returns sum_i a[i]*b[i] for two variable vectors as one fused node.
func (t *Tape) DotVV(a, b []Var) Var {
	if len(a) != len(b) {
		panic("ad: DotVV length mismatch")
	}
	mark := t.BeginFused()
	s := 0.0
	for i := range a {
		s += a[i].val * b[i].val
		t.FusedEdge(a[i], b[i].val)
		t.FusedEdge(b[i], a[i].val)
	}
	return t.EndFused(mark, s)
}

// SumSquares returns sum_i xs[i]^2 as one fused node.
func (t *Tape) SumSquares(xs []Var) Var {
	mark := t.BeginFused()
	s := 0.0
	for _, x := range xs {
		s += x.val * x.val
		t.FusedEdge(x, 2*x.val)
	}
	return t.EndFused(mark, s)
}
