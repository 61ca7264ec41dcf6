package dist

import (
	"math"
	"testing"

	"bayessuite/internal/ad"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// logScalePriors pairs each block prior node with the scalar path it
// replaces: a Builder.Positive transform per parameter followed by the
// family's one-parameter LPDF node.
var logScalePriors = []struct {
	name   string
	block  func(t *ad.Tape, q []ad.Var) ad.Var
	scalar func(t *ad.Tape, x ad.Var) ad.Var
}{
	{"gamma(2,2)", NewGamma(2, 2).LogScaleLPDF, NewGamma(2, 2).LPDF},
	{"gamma(0.7,3)", NewGamma(0.7, 3).LogScaleLPDF, NewGamma(0.7, 3).LPDF},
	{"halfcauchy(0.2)", NewHalfCauchy(0.2).LogScaleLPDF, NewHalfCauchy(0.2).LPDF},
	{"halfcauchy(1)", NewHalfCauchy(1).LogScaleLPDF, NewHalfCauchy(1).LPDF},
}

// scalarLogScale evaluates the scalar path at q: value and gradient.
func scalarLogScale(prior func(t *ad.Tape, x ad.Var) ad.Var, q []float64) (float64, []float64) {
	tp := ad.NewTape(0)
	in := tp.Input(q)
	b := model.NewBuilder(tp)
	for _, qi := range in {
		b.Add(prior(tp, b.Positive(qi)))
	}
	out := b.Result()
	g := make([]float64, len(q))
	tp.Grad(out, g)
	return out.Value(), g
}

// blockLogScale evaluates a block node at q: value, gradient, and the
// panic value if the node raised one.
func blockLogScale(block func(t *ad.Tape, q []ad.Var) ad.Var, q []float64) (val float64, g []float64, raised any) {
	defer func() { raised = recover() }()
	tp := ad.NewTape(0)
	out := block(tp, tp.Input(q))
	g = make([]float64, len(q))
	tp.Grad(out, g)
	return out.Value(), g, nil
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*(1+math.Abs(want))
}

// TestLogScalePriorsMatchScalarPath: each block prior node's value and
// every partial agree with Builder.Positive + the scalar LPDF to 1e-12
// relative, at random points and at adversarial ones — scales of 1e-3 and
// 1e3, exp(±8), exp(±40), exp(±300).
func TestLogScalePriorsMatchScalarPath(t *testing.T) {
	r := rng.New(41)
	var points [][]float64
	for trial := 0; trial < 20; trial++ {
		q := make([]float64, 1+r.Intn(30))
		for i := range q {
			q[i] = 3 * r.Norm()
		}
		points = append(points, q)
	}
	for _, mag := range []float64{0, math.Log(1e3), 8, 40, 300} {
		points = append(points, []float64{mag}, []float64{-mag}, []float64{mag, -mag, 0.3, mag, -1.2})
	}
	for _, p := range logScalePriors {
		for _, q := range points {
			wantV, wantG := scalarLogScale(p.scalar, q)
			gotV, gotG, raised := blockLogScale(p.block, q)
			if raised != nil {
				t.Fatalf("%s at %v: block node panicked: %v", p.name, q, raised)
			}
			if !near(gotV, wantV) {
				t.Errorf("%s at %v: value %.17g, scalar path %.17g", p.name, q, gotV, wantV)
			}
			for i := range q {
				if !near(gotG[i], wantG[i]) {
					t.Errorf("%s at %v: d/dq%d %.17g, scalar path %.17g", p.name, q, i, gotG[i], wantG[i])
				}
			}
		}
	}
}

// TestLogScalePriorsRejectPastOverflow: where exp(q) overflows, the scalar
// path's density or gradient is non-finite (the evaluator rejects the
// point), and the block node must reject too — a -Inf value or a typed
// *ad.ErrNonFinite panic — never hand back a NaN.
func TestLogScalePriorsRejectPastOverflow(t *testing.T) {
	nonFinite := func(v float64, g []float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		for _, x := range g {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		return false
	}
	for _, p := range logScalePriors {
		for _, q := range [][]float64{{710}, {800}, {math.Inf(1)}, {0.4, 1e4, -2}} {
			if v, g := scalarLogScale(p.scalar, q); !nonFinite(v, g) {
				t.Fatalf("%s at %v: scalar path finite (%g), the overflow case is not one", p.name, q, v)
			}
			v, _, raised := blockLogScale(p.block, q)
			switch raised.(type) {
			case nil:
				if !math.IsInf(v, -1) {
					t.Errorf("%s at %v: block node returned %g, want -Inf or *ad.ErrNonFinite", p.name, q, v)
				}
			case *ad.ErrNonFinite:
			default:
				t.Errorf("%s at %v: block node panicked with %v, want *ad.ErrNonFinite", p.name, q, raised)
			}
		}
	}
}

// TestLogScalePriorsFiniteDifferences checks every block node's partials
// against central differences of its own value.
func TestLogScalePriorsFiniteDifferences(t *testing.T) {
	q := []float64{-2.3, -0.4, 0, 0.7, 1.9}
	const h = 1e-6
	for _, p := range logScalePriors {
		_, g, _ := blockLogScale(p.block, q)
		for i := range q {
			qp := append([]float64(nil), q...)
			qm := append([]float64(nil), q...)
			qp[i] += h
			qm[i] -= h
			vp, _, _ := blockLogScale(p.block, qp)
			vm, _, _ := blockLogScale(p.block, qm)
			fd := (vp - vm) / (2 * h)
			if math.Abs(fd-g[i]) > 1e-6*(1+math.Abs(fd)) {
				t.Errorf("%s: d/dq%d %.12g, finite difference %.12g", p.name, i, g[i], fd)
			}
		}
	}
}
