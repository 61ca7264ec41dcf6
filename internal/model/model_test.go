package model

import (
	"math"
	"testing"
	"testing/quick"

	"bayessuite/internal/ad"
	"bayessuite/internal/dist"
)

// TestTransformRoundTrips checks constrain/unconstrain inverses.
func TestTransformRoundTrips(t *testing.T) {
	err := quick.Check(func(raw float64) bool {
		q := math.Mod(raw, 10)
		if math.IsNaN(q) {
			return true
		}
		x := ConstrainLower(q, 2)
		if x <= 2 {
			return false
		}
		if math.Abs(UnconstrainLower(x, 2)-q) > 1e-9*(1+math.Abs(q)) {
			return false
		}
		y := ConstrainLowerUpper(q, -1, 3)
		if y <= -1 || y >= 3 {
			return false
		}
		return math.Abs(UnconstrainLowerUpper(y, -1, 3)-q) < 1e-6*(1+math.Abs(q))
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestConstrainOrderedMonotone(t *testing.T) {
	err := quick.Check(func(a, b, c, d float64) bool {
		q := []float64{math.Mod(a, 5), math.Mod(b, 5), math.Mod(c, 5), math.Mod(d, 5)}
		for _, v := range q {
			if math.IsNaN(v) {
				return true
			}
		}
		x := ConstrainOrdered(q)
		for i := 1; i < len(x); i++ {
			if x[i] <= x[i-1] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

func TestConstrainSimplex(t *testing.T) {
	err := quick.Check(func(a, b, c float64) bool {
		q := []float64{math.Mod(a, 5), math.Mod(b, 5), math.Mod(c, 5)}
		for _, v := range q {
			if math.IsNaN(v) {
				return true
			}
		}
		x := ConstrainSimplex(q)
		if len(x) != 4 {
			return false
		}
		sum := 0.0
		for _, v := range x {
			if v <= 0 || v >= 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-12
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}

// transformJacobianModel exposes one Builder transform as a Model so the
// Jacobian can be verified by integration: if x = T(q) with prior pi(x),
// then integrating exp(logpost(q)) dq over all q must equal
// integral pi(x) dx = 1.
type transformJacobianModel struct {
	build func(b *Builder, q ad.Var) // adds prior-on-constrained + Jacobian
}

func (m *transformJacobianModel) Name() string { return "tj" }
func (m *transformJacobianModel) Dim() int     { return 1 }
func (m *transformJacobianModel) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	b := NewBuilder(t)
	m.build(b, q[0])
	return b.Result()
}

func integrates(t *testing.T, name string, m Model, lo, hi float64) {
	t.Helper()
	ev := NewEvaluator(m)
	const n = 40000
	h := (hi - lo) / n
	sum := 0.0
	for i := 0; i < n; i++ {
		q := []float64{lo + (float64(i)+0.5)*h}
		lp := ev.LogDensity(q)
		if lp > -700 {
			sum += math.Exp(lp) * h
		}
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("%s: transformed density integrates to %.4f, want 1", name, sum)
	}
}

func TestJacobiansNormalize(t *testing.T) {
	integrates(t, "Lower+Gamma", &transformJacobianModel{
		build: func(b *Builder, q ad.Var) {
			x := b.Lower(q, 0)
			b.Add(dist.NewGamma(2, 1.5).LPDF(b.T, x))
		}}, -15, 8)
	integrates(t, "Upper+reflectedExp", &transformJacobianModel{
		build: func(b *Builder, q ad.Var) {
			x := b.Upper(q, 3) // support (-inf, 3); use exp(-(3-x)) flipped
			// density of (3 - x) ~ Exponential(1)
			b.Add(dist.ExponentialLPDF(b.T, b.T.SubFromConst(3, x), 1))
		}}, -15, 8)
	integrates(t, "LowerUpper+Beta", &transformJacobianModel{
		build: func(b *Builder, q ad.Var) {
			x := b.Prob(q)
			b.Add(dist.NewBeta(2.5, 1.5).LPDF(b.T, x))
		}}, -25, 25)
}

// simpleGaussian is a trivial model for Evaluator tests.
type simpleGaussian struct{}

func (simpleGaussian) Name() string { return "g" }
func (simpleGaussian) Dim() int     { return 2 }
func (simpleGaussian) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	b := NewBuilder(t)
	b.Add(dist.NormalLPDF(t, q[0], ad.Const(0), ad.Const(1)))
	b.Add(dist.NormalLPDF(t, q[1], ad.Const(0), ad.Const(1)))
	return b.Result()
}

func TestEvaluatorCountsWork(t *testing.T) {
	ev := NewEvaluator(simpleGaussian{})
	q := []float64{0.5, -0.5}
	g := make([]float64, 2)
	for i := 0; i < 5; i++ {
		ev.LogDensityGrad(q, g)
	}
	for i := 0; i < 3; i++ {
		ev.LogDensity(q)
	}
	if ev.GradEvals != 5 || ev.DensEvals != 3 {
		t.Errorf("work counters: grad=%d dens=%d", ev.GradEvals, ev.DensEvals)
	}
	if ev.TapeNodes == 0 {
		t.Error("tape size not recorded")
	}
}

// nanModel returns NaN beyond a boundary, exercising the rejection path.
type nanModel struct{}

func (nanModel) Name() string { return "nan" }
func (nanModel) Dim() int     { return 1 }
func (nanModel) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	return t.Log(q[0]) // NaN for negative input
}

func TestEvaluatorRejectsNaN(t *testing.T) {
	ev := NewEvaluator(nanModel{})
	g := make([]float64, 1)
	lp := ev.LogDensityGrad([]float64{-1}, g)
	if !math.IsInf(lp, -1) {
		t.Errorf("NaN density should become -Inf, got %g", lp)
	}
	if g[0] != 0 {
		t.Errorf("gradient should be zeroed, got %g", g[0])
	}
	if lp := ev.LogDensity([]float64{-1}); !math.IsInf(lp, -1) {
		t.Errorf("LogDensity NaN should become -Inf, got %g", lp)
	}
}

// indefModel panics with ad.ErrIndefinite (as CholeskyVar does).
type indefModel struct{}

func (indefModel) Name() string { return "indef" }
func (indefModel) Dim() int     { return 1 }
func (indefModel) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	if q[0].Value() < 0 {
		panic(ad.ErrIndefinite)
	}
	return q[0]
}

func TestEvaluatorRecoversIndefinite(t *testing.T) {
	ev := NewEvaluator(indefModel{})
	g := make([]float64, 1)
	if lp := ev.LogDensityGrad([]float64{-2}, g); !math.IsInf(lp, -1) {
		t.Errorf("indefinite should become -Inf, got %g", lp)
	}
	if lp := ev.LogDensity([]float64{-2}); !math.IsInf(lp, -1) {
		t.Errorf("indefinite should become -Inf, got %g", lp)
	}
	// Healthy evaluation still works afterwards.
	if lp := ev.LogDensityGrad([]float64{2}, g); lp != 2 || g[0] != 1 {
		t.Errorf("recovery broke the evaluator: lp=%g grad=%g", lp, g[0])
	}
}

func TestBuilderEmpty(t *testing.T) {
	b := NewBuilder(ad.NewTape(0))
	if v := b.Result(); v.Value() != 0 {
		t.Errorf("empty builder result %g", v.Value())
	}
}

// TestOrderedBuilderMatchesFloat ensures the AD Ordered transform agrees
// with ConstrainOrdered.
func TestOrderedBuilderMatchesFloat(t *testing.T) {
	tp := ad.NewTape(0)
	q := []float64{0.3, -0.5, 1.2}
	in := tp.Input(q)
	b := NewBuilder(tp)
	out := b.Ordered(in)
	want := ConstrainOrdered(q)
	for i := range out {
		if math.Abs(out[i].Value()-want[i]) > 1e-12 {
			t.Errorf("ordered[%d] = %g want %g", i, out[i].Value(), want[i])
		}
	}
}

// TestSimplexBuilderMatchesFloat likewise for the simplex.
func TestSimplexBuilderMatchesFloat(t *testing.T) {
	tp := ad.NewTape(0)
	q := []float64{0.3, -0.5, 1.2}
	in := tp.Input(q)
	b := NewBuilder(tp)
	out := b.Simplex(in)
	want := ConstrainSimplex(q)
	if len(out) != len(want) {
		t.Fatalf("simplex length %d want %d", len(out), len(want))
	}
	for i := range out {
		if math.Abs(out[i].Value()-want[i]) > 1e-12 {
			t.Errorf("simplex[%d] = %g want %g", i, out[i].Value(), want[i])
		}
	}
}
