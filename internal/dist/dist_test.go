package dist

import (
	"math"
	"testing"
	"testing/quick"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
	"bayessuite/internal/rng"
)

// TestLogPDFsIntegrateToOne numerically integrates each continuous log
// density over a wide grid and checks normalization.
func TestLogPDFsIntegrateToOne(t *testing.T) {
	cases := []struct {
		name   string
		f      func(x float64) float64
		lo, hi float64
	}{
		{"normal", func(x float64) float64 { return NormalLogPDF(x, 1, 2) }, -30, 30},
		{"halfcauchy", func(x float64) float64 { return HalfCauchyLogPDF(x, 1) }, 0, 16000},
		{"gamma", func(x float64) float64 { return GammaLogPDF(x, 2.5, 1.5) }, 1e-9, 60},
		{"lognormal", func(x float64) float64 { return LogNormalLogPDF(x, 0, 0.5) }, 1e-9, 60},
	}
	for _, c := range cases {
		const n = 200000
		h := (c.hi - c.lo) / n
		sum := 0.0
		for i := 0; i < n; i++ {
			x := c.lo + (float64(i)+0.5)*h
			lp := c.f(x)
			if lp > -700 {
				sum += math.Exp(lp) * h
			}
		}
		tol := 0.01
		if c.name == "halfcauchy" {
			tol = 0.02 // heavy tail truncated
		}
		if math.Abs(sum-1) > tol {
			t.Errorf("%s integrates to %.4f", c.name, sum)
		}
	}
}

// TestPMFsSumToOne checks the discrete distributions.
func TestPMFsSumToOne(t *testing.T) {
	// Poisson(3.7)
	sum := 0.0
	for y := 0; y < 200; y++ {
		sum += math.Exp(PoissonLogPMF(y, 3.7))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("poisson sums to %g", sum)
	}
	// Binomial(20, 0.3)
	sum = 0
	for y := 0; y <= 20; y++ {
		sum += math.Exp(BinomialLogitLogPMF(y, 20, math.Log(0.3/0.7)))
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("binomial sums to %g", sum)
	}
	// Bernoulli-logit
	for _, eta := range []float64{-3, 0, 2.5} {
		s := math.Exp(BernoulliLogitLogPMF(0, eta)) + math.Exp(BernoulliLogitLogPMF(1, eta))
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("bernoulli-logit(%g) sums to %g", eta, s)
		}
	}
}

func TestParameterizationConsistency(t *testing.T) {
	// Poisson log-rate parameterization matches the direct one.
	for _, y := range []int{0, 3, 17} {
		lam := 4.2
		a := PoissonLogPMF(y, lam)
		b := PoissonLogLogPMF(y, math.Log(lam))
		if math.Abs(a-b) > 1e-12 {
			t.Errorf("poisson param mismatch y=%d: %g vs %g", y, a, b)
		}
	}
	// Binomial logit matches the closed form in p.
	eta := 0.8
	p := 1 / (1 + math.Exp(-eta))
	a := mathx.LChoose(20, 7) + 7*math.Log(p) + 13*math.Log1p(-p)
	b := BinomialLogitLogPMF(7, 20, eta)
	if math.Abs(a-b) > 1e-10 {
		t.Errorf("binomial param mismatch: %g vs %g", a, b)
	}
}

// adGradCheck verifies an AD lpdf term against finite differences of its
// float counterpart.
func adGradCheck(t *testing.T, name string, dim int,
	build func(tp *ad.Tape, q []ad.Var) ad.Var, eval func(x []float64) float64, x []float64) {
	t.Helper()
	tp := ad.NewTape(0)
	q := tp.Input(x)
	out := build(tp, q)
	if math.Abs(out.Value()-eval(x)) > 1e-9*(1+math.Abs(out.Value())) {
		t.Errorf("%s: AD value %g, float value %g", name, out.Value(), eval(x))
	}
	grad := make([]float64, dim)
	tp.Grad(out, grad)
	const h = 1e-6
	for i := 0; i < dim; i++ {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		fd := (eval(xp) - eval(xm)) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("%s: d/dx%d AD %g, FD %g", name, i, grad[i], fd)
		}
	}
}

func TestADNormalLPDF(t *testing.T) {
	adGradCheck(t, "normal", 3,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return NormalLPDF(tp, q[0], q[1], q[2]) },
		func(x []float64) float64 { return NormalLogPDF(x[0], x[1], x[2]) },
		[]float64{0.4, -0.2, 1.3})
}

func TestADNormalSums(t *testing.T) {
	y := []float64{0.1, -0.5, 1.2, 0.7}
	adGradCheck(t, "normal-vec", 5,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return NormalLPDFVec(tp, y, q[:4], q[4]) },
		func(x []float64) float64 {
			s := 0.0
			for i, yi := range y {
				s += NormalLogPDF(yi, x[i], x[4])
			}
			return s
		},
		[]float64{0.3, -0.2, 0.8, 0.5, 0.9})
	adGradCheck(t, "normal-var-data", 6,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return NormalLPDFVarData(tp, q[:4], q[4], q[5]) },
		func(x []float64) float64 {
			s := 0.0
			for _, yi := range x[:4] {
				s += NormalLogPDF(yi, x[4], x[5])
			}
			return s
		},
		append(append([]float64(nil), y...), 0.3, 0.9))
}

func TestADCauchyStudentGamma(t *testing.T) {
	adGradCheck(t, "halfcauchy", 1,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return NewHalfCauchy(1.5).LPDF(tp, q[0]) },
		func(x []float64) float64 { return HalfCauchyLogPDF(x[0], 1.5) },
		[]float64{0.9})
	adGradCheck(t, "gamma", 1,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return NewGamma(2, 3).LPDF(tp, q[0]) },
		func(x []float64) float64 { return GammaLogPDF(x[0], 2, 3) },
		[]float64{1.4})
	adGradCheck(t, "lognormal", 1,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return NewLogNormal(0.1, 0.9).LPDF(tp, q[0]) },
		func(x []float64) float64 { return LogNormalLogPDF(x[0], 0.1, 0.9) },
		[]float64{1.7})
}

func TestADDiscreteSums(t *testing.T) {
	yb := []int{1, 0, 1, 1}
	adGradCheck(t, "bernoulli-logit-sum", 4,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return BernoulliLogitLPMFSum(tp, yb, q) },
		func(x []float64) float64 {
			s := 0.0
			for i, y := range yb {
				s += BernoulliLogitLogPMF(y, x[i])
			}
			return s
		},
		[]float64{0.3, -0.7, 1.2, 0.1})

	yp := []int{2, 0, 5}
	adGradCheck(t, "poisson-log-sum", 3,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return PoissonLogLPMFSum(tp, yp, LogFactorials(yp), q) },
		func(x []float64) float64 {
			s := 0.0
			for i, y := range yp {
				s += PoissonLogLogPMF(y, x[i])
			}
			return s
		},
		[]float64{0.5, -1.0, 1.5})

	ys, ns := []int{3, 7}, []int{10, 12}
	adGradCheck(t, "binomial-logit-sum", 2,
		func(tp *ad.Tape, q []ad.Var) ad.Var { return BinomialLogitLPMFSum(tp, ys, ns, LogChooses(ns, ys), q) },
		func(x []float64) float64 {
			s := 0.0
			for i := range ys {
				s += BinomialLogitLogPMF(ys[i], ns[i], x[i])
			}
			return s
		},
		[]float64{-0.4, 0.6})

}

// TestHoistedConstantsBitIdentical pins the contract of the densities
// whose data-only or parameter-only constants are computed ahead of the
// evaluation: the recorded value carries the very bits of the closed form
// in dist.go, which evaluates those constants in place, term for term in
// the same order. A seeded chain therefore cannot tell the two apart.
func TestHoistedConstantsBitIdentical(t *testing.T) {
	r := rng.New(2024)
	tp := ad.NewTape(0)
	same := func(name string, got ad.Var, want float64) {
		t.Helper()
		if math.Float64bits(got.Value()) != math.Float64bits(want) {
			t.Errorf("%s: recorded %.17g, closed form %.17g", name, got.Value(), want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		a, b := 0.3+3*r.Float64(), 0.2+4*r.Float64()
		x, sigma := 0.05+5*r.Float64(), 0.1+2*r.Float64()
		tp.Reset()
		in := tp.Input([]float64{x})
		same("gamma", NewGamma(a, b).LPDF(tp, in[0]), GammaLogPDF(x, a, b))
		same("halfcauchy", NewHalfCauchy(sigma).LPDF(tp, in[0]), HalfCauchyLogPDF(x, sigma))
		mu := 3 * r.Norm()
		same("normal", NewNormal(mu, sigma).LPDF(tp, in[0]), NormalLogPDF(x, mu, sigma))
		same("lognormal", NewLogNormal(mu, sigma).LPDF(tp, in[0]), LogNormalLogPDF(x, mu, sigma))
		tp.Reset()
		ys := tp.Input([]float64{x, mu + r.Norm(), 2 * r.Norm()})
		same("normal-var-data", NewNormal(mu, sigma).LPDFVarData(tp, ys),
			NormalLPDFVarData(tp, ys, ad.Const(mu), ad.Const(sigma)).Value())

		const n = 9
		y, cnt, size := make([]int, n), make([]int, n), make([]int, n)
		eta := make([]float64, n)
		var pois, binom float64
		for i := range eta {
			eta[i] = 2 * r.Norm()
			cnt[i] = r.Intn(40)
			size[i] = 1 + r.Intn(3000)
			y[i] = r.Intn(size[i] + 1)
			pois += PoissonLogLogPMF(cnt[i], eta[i])
			binom += BinomialLogitLogPMF(y[i], size[i], eta[i])
		}
		tp.Reset()
		ev := tp.Input(eta)
		same("poisson-log-sum", PoissonLogLPMFSum(tp, cnt, LogFactorials(cnt), ev), pois)
		same("binomial-logit-sum", BinomialLogitLPMFSum(tp, y, size, LogChooses(size, y), ev), binom)
	}
}

// TestSamplerMatchesDensity draws from the rng samplers and checks the
// empirical CDF against the analytic CDF at a few probe points
// (a light Kolmogorov-style property check).
func TestSamplerMatchesDensity(t *testing.T) {
	r := rng.New(77)
	const n = 100000
	var xs []float64
	for i := 0; i < n; i++ {
		xs = append(xs, r.Norm()*1.5+0.5)
	}
	for _, probe := range []float64{-1, 0.5, 2} {
		count := 0
		for _, x := range xs {
			if x <= probe {
				count++
			}
		}
		want := 0.5 * math.Erfc(-(probe-0.5)/(1.5*math.Sqrt2))
		got := float64(count) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical CDF at %g: %g want %g", probe, got, want)
		}
	}
}

// TestLogPDFFiniteness is a property test: densities never return NaN on
// their support.
func TestLogPDFFiniteness(t *testing.T) {
	err := quick.Check(func(xr, mr, sr float64) bool {
		x := math.Mod(xr, 100)
		mu := math.Mod(mr, 100)
		sigma := math.Abs(math.Mod(sr, 10)) + 0.01
		if math.IsNaN(x) || math.IsNaN(mu) || math.IsNaN(sigma) {
			return true
		}
		lp := NormalLogPDF(x, mu, sigma)
		return !math.IsNaN(lp) && lp <= 10
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}
