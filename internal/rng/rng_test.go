package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := New(43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams overlap: %d/1000 equal outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestFloat64OOOpenInterval(t *testing.T) {
	r := New(2)
	for i := 0; i < 100000; i++ {
		v := r.Float64OO()
		if v <= 0 || v >= 1 {
			t.Fatalf("Float64OO out of (0,1): %g", v)
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(3)
	const n = 10
	counts := make([]int, n)
	const trials = 100000
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for k, c := range counts {
		expect := float64(trials) / n
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d: %d (expected ~%g)", k, c, expect)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func moments(n int, gen func() float64) (mean, variance float64) {
	var m, m2 float64
	for i := 1; i <= n; i++ {
		v := gen()
		d := v - m
		m += d / float64(i)
		m2 += d * (v - m)
	}
	return m, m2 / float64(n-1)
}

func TestNormMoments(t *testing.T) {
	r := New(5)
	mean, v := moments(200000, r.Norm)
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean %g", mean)
	}
	if math.Abs(v-1) > 0.02 {
		t.Errorf("normal variance %g", v)
	}
}

func TestExpMoments(t *testing.T) {
	r := New(6)
	mean, v := moments(200000, r.Exp)
	if math.Abs(mean-1) > 0.02 || math.Abs(v-1) > 0.05 {
		t.Errorf("exponential mean %g variance %g", mean, v)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(7)
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		mean, v := moments(200000, func() float64 { return r.Gamma(shape) })
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Errorf("gamma(%g) mean %g", shape, mean)
		}
		if math.Abs(v-shape) > 0.1*shape+0.05 {
			t.Errorf("gamma(%g) variance %g", shape, v)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	r := New(8)
	a, b := 2.0, 5.0
	mean, v := moments(200000, func() float64 { return r.Beta(a, b) })
	wantMean := a / (a + b)
	wantVar := a * b / ((a + b) * (a + b) * (a + b + 1))
	if math.Abs(mean-wantMean) > 0.01 {
		t.Errorf("beta mean %g want %g", mean, wantMean)
	}
	if math.Abs(v-wantVar) > 0.005 {
		t.Errorf("beta variance %g want %g", v, wantVar)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(9)
	for _, lam := range []float64{0.5, 4, 40, 200} {
		mean, v := moments(100000, func() float64 { return float64(r.Poisson(lam)) })
		if math.Abs(mean-lam) > 0.05*lam+0.05 {
			t.Errorf("poisson(%g) mean %g", lam, mean)
		}
		if math.Abs(v-lam) > 0.1*lam+0.1 {
			t.Errorf("poisson(%g) variance %g", lam, v)
		}
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(10)
	for _, tc := range []struct {
		n int
		p float64
	}{{10, 0.3}, {100, 0.7}, {1000, 0.05}} {
		mean, v := moments(50000, func() float64 { return float64(r.Binomial(tc.n, tc.p)) })
		wantMean := float64(tc.n) * tc.p
		wantVar := wantMean * (1 - tc.p)
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.1 {
			t.Errorf("binomial(%d,%g) mean %g want %g", tc.n, tc.p, mean, wantMean)
		}
		if math.Abs(v-wantVar) > 0.1*wantVar+0.2 {
			t.Errorf("binomial(%d,%g) variance %g want %g", tc.n, tc.p, v, wantVar)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(11)
	if r.Binomial(10, 0) != 0 || r.Binomial(10, 1) != 10 || r.Binomial(0, 0.5) != 0 {
		t.Error("binomial edge cases wrong")
	}
}
