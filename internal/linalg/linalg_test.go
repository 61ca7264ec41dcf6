package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"bayessuite/internal/rng"
)

func randSPD(r *rng.RNG, n int) *Matrix {
	// A = B B^T + n*I is SPD.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = r.Norm()
	}
	a := b.Mul(b.Transpose())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskyReconstructs(t *testing.T) {
	r := rng.New(3)
	for _, n := range []int{1, 2, 5, 12} {
		a := randSPD(r, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		llt := l.Mul(l.Transpose())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(llt.At(i, j)-a.At(i, j)) > 1e-9*(1+math.Abs(a.At(i, j))) {
					t.Errorf("n=%d: (L L^T)[%d][%d] = %g, want %g", n, i, j, llt.At(i, j), a.At(i, j))
				}
			}
		}
		// Lower triangular with positive diagonal.
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				t.Errorf("diag %d not positive", i)
			}
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Errorf("upper entry (%d,%d) nonzero", i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Error("expected indefinite error")
	}
	b := NewMatrix(2, 3)
	if _, err := Cholesky(b); err == nil {
		t.Error("expected non-square error")
	}
}

func TestSolvesInvert(t *testing.T) {
	r := rng.New(4)
	n := 8
	a := randSPD(r, n)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Norm()
	}
	b := a.MulVec(x)
	got := CholSolve(l, b)
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
			t.Errorf("solve[%d] = %g want %g", i, got[i], x[i])
		}
	}
}

func TestDotAXPYScaleNorm(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("dot = %g", Dot(a, b))
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	err := quick.Check(func(seed uint32) bool {
		r := rng.New(uint64(seed))
		m := NewMatrix(3, 4)
		for i := range m.Data {
			m.Data[i] = r.Norm()
		}
		x := make([]float64, 4)
		for i := range x {
			x[i] = r.Norm()
		}
		// Compare MulVec with Mul against a column matrix.
		col := NewMatrix(4, 1)
		copy(col.Data, x)
		y1 := m.MulVec(x)
		y2 := m.Mul(col)
		for i := range y1 {
			if math.Abs(y1[i]-y2.At(i, 0)) > 1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(5)
	m := NewMatrix(3, 5)
	for i := range m.Data {
		m.Data[i] = r.Norm()
	}
	tt := m.Transpose().Transpose()
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatal("transpose not an involution")
		}
	}
}

func TestDimensionPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	for _, f := range []func(){
		func() { m.MulVec([]float64{1}) },
		func() { Dot([]float64{1}, []float64{1, 2}) },
		func() { SolveLower(m, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on dimension mismatch")
				}
			}()
			f()
		}()
	}
}
