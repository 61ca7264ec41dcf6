// Package model defines the probabilistic-model abstraction of
// BayesSuite-Go — the analogue of a compiled Stan program. A Model exposes
// its unconstrained dimension and a method that records the joint log
// density (posterior kernel plus change-of-variables Jacobians) on an
// autodiff tape. Samplers talk to models through Evaluator, which provides
// value+gradient evaluation with work accounting and turns numerical
// failures (indefinite kernels, NaNs) into -Inf rejections, the same way
// Stan does.
package model

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/kernels"
)

// Model is a Bayesian model over an unconstrained parameter vector.
// Implementations build constrained parameters from the unconstrained ones
// via the Builder transforms, which handle the log-Jacobian bookkeeping.
type Model interface {
	// Name returns the workload name (e.g. "12cities").
	Name() string
	// Dim returns the dimension of the unconstrained parameter vector.
	Dim() int
	// LogPosterior records log p(theta|D) + log|J| on the tape for the
	// unconstrained point q and returns the scalar result variable.
	LogPosterior(t *ad.Tape, q []ad.Var) ad.Var
}

// DataSized is implemented by models that can report the size of their
// modeled data — the static feature the paper's LLC-miss predictor uses
// (§V-A). The value is in bytes of observed data fed to the likelihood.
type DataSized interface {
	ModeledDataBytes() int
}

// Constrainer is implemented by models that can map an unconstrained draw
// to its natural (constrained) parameterization for reporting.
type Constrainer interface {
	Constrain(q []float64) []float64
	ConstrainedNames() []string
}

// ConstrainDraws maps every draw, draws[chain][i], to m's natural scale
// and returns the mapped draws with their names when m is a Constrainer.
// Otherwise it returns draws as they are and nil names.
func ConstrainDraws(m Model, draws [][][]float64) ([][][]float64, []string) {
	c, ok := m.(Constrainer)
	if !ok {
		return draws, nil
	}
	out := make([][][]float64, len(draws))
	for ch, rows := range draws {
		out[ch] = make([][]float64, len(rows))
		for i, q := range rows {
			out[ch][i] = c.Constrain(q)
		}
	}
	return out, c.ConstrainedNames()
}

// Evaluator wraps a Model with a reusable tape and counts gradient
// evaluations — the work units the hardware model converts to instructions.
type Evaluator struct {
	Model Model

	tape *ad.Tape
	vars []ad.Var

	// GradEvals counts calls to LogDensityGrad; DensEvals counts
	// value-only calls. Both are plain counters (single-chain use).
	GradEvals int64
	DensEvals int64

	// TapeNodes records the tape size of the most recent evaluation; the
	// hardware model uses it as the per-evaluation working-set proxy.
	TapeNodes int
	TapeEdges int

	// LastNonFinite records the most recent non-finite event the evaluator
	// converted into a -Inf rejection: which kernel produced it and at
	// which parameter index. It is diagnostic state, not an error return —
	// sampling proceeds (the proposal is rejected) — but the fault layers
	// above can surface it instead of reporting an anonymous NaN.
	LastNonFinite *ad.ErrNonFinite

	// nanLP is the record a NaN log density leaves in LastNonFinite,
	// reused so that rejecting one allocates nothing.
	nanLP ad.ErrNonFinite
}

// rejectNaN records a NaN log density lp in LastNonFinite.
func (e *Evaluator) rejectNaN(lp float64) {
	e.nanLP = ad.ErrNonFinite{Op: e.Model.Name(), Index: -1, Value: lp}
	e.LastNonFinite = &e.nanLP
}

// NewEvaluator returns an Evaluator for m with a fresh tape.
func NewEvaluator(m Model) *Evaluator {
	return &Evaluator{
		Model: m,
		tape:  ad.NewTape(4 * m.Dim()),
		vars:  make([]ad.Var, m.Dim()),
	}
}

// Dim returns the unconstrained dimension.
func (e *Evaluator) Dim() int { return e.Model.Dim() }

// LogDensityGrad evaluates the log density and its gradient at q, writing
// the gradient into grad. Numerical failures yield -Inf with a zero
// gradient, which samplers treat as rejection.
func (e *Evaluator) LogDensityGrad(q, grad []float64) float64 {
	return e.gradCore(nil, q, grad, nil)
}

// gradCore is the shared body of LogDensityGrad and the batched replay
// path. With bm == nil it records Model.LogPosterior from scratch; with
// bm != nil it records bm.LogPosteriorPre, splicing the precomputed
// kernel results pre into the tape. Either way every failure mode —
// non-finite kernel panics (including ones replayed from a BatchResult),
// indefinite kernels, NaN densities, non-finite gradients — is converted
// to a -Inf rejection for this evaluation only.
func (e *Evaluator) gradCore(bm BatchableModel, q, grad []float64, pre []kernels.BatchResult) (lp float64) {
	e.GradEvals++
	defer func() {
		if r := recover(); r != nil {
			if nf, ok := r.(*ad.ErrNonFinite); ok {
				e.LastNonFinite = nf
			} else if r != ad.ErrIndefinite {
				panic(r)
			}
			lp = math.Inf(-1)
			for i := range grad {
				grad[i] = 0
			}
		}
	}()
	e.tape.Reset()
	e.tape.InputInto(q, e.vars)
	var out ad.Var
	if bm != nil {
		out = bm.LogPosteriorPre(e.tape, e.vars, pre)
	} else {
		out = e.Model.LogPosterior(e.tape, e.vars)
	}
	e.TapeNodes = e.tape.Len()
	e.TapeEdges = e.tape.EdgeLen()
	lp = out.Value()
	if math.IsNaN(lp) {
		e.rejectNaN(lp)
		lp = math.Inf(-1)
		for i := range grad {
			grad[i] = 0
		}
		return lp
	}
	e.tape.Grad(out, grad)
	if err := ad.CheckFinite(e.Model.Name(), lp, grad); err != nil {
		e.LastNonFinite = err
		lp = math.Inf(-1)
		for i := range grad {
			grad[i] = 0
		}
	}
	return lp
}

// LogDensity evaluates the log density only (no gradient sweep); used by
// Metropolis-Hastings and by NUTS tree pruning.
func (e *Evaluator) LogDensity(q []float64) (lp float64) {
	e.DensEvals++
	defer func() {
		if r := recover(); r != nil {
			if nf, ok := r.(*ad.ErrNonFinite); ok {
				e.LastNonFinite = nf
			} else if r != ad.ErrIndefinite {
				panic(r)
			}
			lp = math.Inf(-1)
		}
	}()
	e.tape.Reset()
	e.tape.InputInto(q, e.vars)
	out := e.Model.LogPosterior(e.tape, e.vars)
	e.TapeNodes = e.tape.Len()
	e.TapeEdges = e.tape.EdgeLen()
	lp = out.Value()
	if math.IsNaN(lp) {
		e.rejectNaN(lp)
		return math.Inf(-1)
	}
	return lp
}
