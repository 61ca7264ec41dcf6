package mathx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %.12g want %.12g", what, got, want)
	}
}

func TestLogSumExp(t *testing.T) {
	almost(t, LogSumExp(0, 0), math.Log(2), 1e-12, "lse(0,0)")
	almost(t, LogSumExp(1000, 1000), 1000+math.Log(2), 1e-9, "lse(1000,1000)")
	almost(t, LogSumExp(-1000, 0), 0, 1e-12, "lse(-1000,0)")
	if v := LogSumExp(math.Inf(-1), 3); v != 3 {
		t.Errorf("lse(-inf,3) = %g", v)
	}
}

func TestLog1pExpStable(t *testing.T) {
	for _, x := range []float64{-800, -40, -5, 0, 5, 30, 40, 800} {
		got := Log1pExp(x)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("log1pexp(%g) = %g", x, got)
		}
		if x < 700 {
			want := math.Log1p(math.Exp(x))
			if x > 33 {
				want = x // direct formula overflows region handled exactly
			}
			almost(t, got, want, 1e-9*(1+math.Abs(want)), "log1pexp")
		}
		if got < 0 {
			t.Errorf("log1pexp(%g) negative: %g", x, got)
		}
	}
}

func TestInvLogitLogitRoundTrip(t *testing.T) {
	err := quick.Check(func(x float64) bool {
		x = math.Mod(x, 30)
		if math.IsNaN(x) {
			return true
		}
		p := InvLogit(x)
		if p <= 0 || p >= 1 {
			return math.Abs(x) > 25 // saturation is acceptable far out
		}
		return math.Abs(Logit(p)-x) < 1e-6*(1+math.Abs(x))
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestLBetaChoose(t *testing.T) {
	// C(10, 3) = 120.
	almost(t, math.Exp(LChoose(10, 3)), 120, 1e-9, "choose(10,3)")
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Mean(xs), 5, 1e-12, "mean")
	m, v := MeanVar(xs)
	almost(t, m, 5, 1e-12, "meanvar mean")
	almost(t, v, 32.0/7, 1e-12, "meanvar var")
	if _, v := MeanVar([]float64{1}); Mean(nil) != 0 || v != 0 {
		t.Error("degenerate cases wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	sort.Float64s(xs)
	almost(t, Quantile(xs, 0), 1, 1e-12, "q0")
	almost(t, Quantile(xs, 1), 5, 1e-12, "q1")
	almost(t, Quantile(xs, 0.5), 3, 1e-12, "median")
	almost(t, Quantile(xs, 0.25), 2, 1e-12, "q25")
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}
