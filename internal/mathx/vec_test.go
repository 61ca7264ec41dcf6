package mathx

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// linkGrid is the fixed 2^20-point input set of the twin and accuracy
// tests: the ranges a GLM's linear predictor visits, the far tails, the
// neighbourhood of zero, and every special value.
func linkGrid() []float64 {
	x := make([]float64, 1<<20)
	r := rand.New(rand.NewSource(20))
	for i := range x {
		switch i % 4 {
		case 0:
			x[i] = 3 * r.NormFloat64()
		case 1:
			x[i] = 50 * r.NormFloat64()
		case 2:
			x[i] = 1e-3 * (2*r.Float64() - 1)
		default:
			x[i] = 1000 * (2*r.Float64() - 1)
		}
	}
	copy(x, []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000abc), // negative NaN with a payload
		5e-324, -5e-324, 2.2e-308, -2.2e-308, math.MaxFloat64, -math.MaxFloat64,
		708, -708, 709.78, 709.79, -745.13, -745.14, 710, -746,
	})
	return x
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestLinkTwin: the assembly and the Go encoding agree bit for bit on the
// whole grid, and at every length from 0 to 13 from every base alignment,
// so every remainder the vector body takes through its padded four-lane
// block is covered, alone and after whole groups.
func TestLinkTwin(t *testing.T) {
	if !useVector {
		t.Skip("no vector encoding on this CPU")
	}
	x := linkGrid()
	n := len(x)
	l, q, e := make([]float64, n), make([]float64, n), make([]float64, n)
	lg, qg, eg := make([]float64, n), make([]float64, n), make([]float64, n)
	LogisticBlock(x, l, q)
	ExpBlock(e, x)
	logisticGo(x, lg, qg)
	expGo(eg, x)
	if i := sameBits(l, lg); i >= 0 {
		t.Errorf("log1pexp(%v): vector %x, generic %x", x[i], l[i], lg[i])
	}
	if i := sameBits(q, qg); i >= 0 {
		t.Errorf("invlogit(%v): vector %x, generic %x", x[i], q[i], qg[i])
	}
	if i := sameBits(e, eg); i >= 0 {
		t.Errorf("exp(%v): vector %x, generic %x", x[i], e[i], eg[i])
	}
	for base := 0; base < 4; base++ {
		for n := 0; n <= 13; n++ {
			in := x[base : base+n]
			LogisticBlock(in, l[base:base+n], q[base:base+n])
			ExpBlock(e[base:base+n], in)
			if sameBits(l[base:base+n], lg[base:base+n]) >= 0 ||
				sameBits(q[base:base+n], qg[base:base+n]) >= 0 ||
				sameBits(e[base:base+n], eg[base:base+n]) >= 0 {
				t.Errorf("base %d length %d: encodings differ", base, n)
			}
		}
	}
	// A partial four-lane group runs the vector body from the stack.
	if a := testing.AllocsPerRun(100, func() {
		LogisticBlock(x[:7], l[:7], q[:7])
		ExpBlock(e[:7], x[:7])
	}); a != 0 {
		t.Errorf("blocks of 7 allocate %.1f times per call pair, want 0", a)
	}
	// In place: ExpBlock may overwrite its input.
	in := append([]float64(nil), x[:1001]...)
	ExpBlock(in, in)
	if i := sameBits(in, eg[:1001]); i >= 0 {
		t.Errorf("in-place exp(%v): %x, want %x", x[i], in[i], eg[i])
	}
}

// ulps returns |got-want| in units of want's last place.
func ulps(got, want float64) float64 {
	return math.Abs(got-want) / (math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want))
}

// TestLinkAccuracy holds both functions within 4 ulp of references built
// from math.Exp and math.Log1p on |eta| <= 700 (normal results only). The
// references carry an ulp or two of their own; TestLinkTrueError measures
// against exact values.
func TestLinkAccuracy(t *testing.T) {
	x := linkGrid()
	n := len(x)
	l, q, e := make([]float64, n), make([]float64, n), make([]float64, n)
	LogisticBlock(x, l, q)
	ExpBlock(e, x)
	var worstL, worstQ, worstE float64
	for i, v := range x {
		if !(math.Abs(v) <= 700) {
			continue
		}
		z := math.Exp(-math.Abs(v))
		wantL, wantQ := math.Max(v, 0)+math.Log1p(z), 1/(1+z)
		if v < 0 {
			wantQ = z / (1 + z)
		}
		worstL = math.Max(worstL, ulps(l[i], wantL))
		worstQ = math.Max(worstQ, ulps(q[i], wantQ))
		worstE = math.Max(worstE, ulps(e[i], math.Exp(v)))
	}
	t.Logf("worst distance from the math references in ulp: log1pexp %.0f, invlogit %.0f, exp %.0f", worstL, worstQ, worstE)
	if worstL > 4 || worstQ > 4 || worstE > 4 {
		t.Errorf("more than 4 ulp from math: log1pexp %.1f, invlogit %.1f, exp %.1f", worstL, worstQ, worstE)
	}
}

const bigPrec = 256

func bigF(v float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(v) }

// bigExp returns exp(x) to about 230 bits for |x| < 1000: Taylor series on
// x/2^k, squared k times.
func bigExp(x *big.Float) *big.Float {
	k := 0
	if e := x.MantExp(nil); e > -8 {
		k = e + 8
	}
	r := new(big.Float).SetMantExp(x, -k)
	sum, term := bigF(1), bigF(1)
	for n := 1; n <= 30; n++ {
		term.Quo(term.Mul(term, r), bigF(float64(n)))
		sum.Add(sum, term)
	}
	for ; k > 0; k-- {
		sum.Mul(sum, sum)
	}
	return sum
}

// bigLog1p returns log(1+z) for z in (0, 1]: z - z*z/2 when z is below
// 2^-90, otherwise two Halley steps on exp from math.Log1p.
func bigLog1p(z *big.Float) *big.Float {
	if z.MantExp(nil) < -90 {
		half := new(big.Float).Mul(z, z)
		return half.Sub(z, half.SetMantExp(half, -1))
	}
	w := new(big.Float).Add(bigF(1), z)
	zf, _ := z.Float64()
	y := bigF(math.Log1p(zf))
	for i := 0; i < 2; i++ {
		ey := bigExp(y)
		step := new(big.Float).Quo(new(big.Float).Sub(w, ey), new(big.Float).Add(w, ey))
		y.Add(y, step.SetMantExp(step, 1))
	}
	return y
}

// ulpErr returns |got - want| in units of got's last place.
func ulpErr(got float64, want *big.Float) float64 {
	d := new(big.Float).Sub(bigF(got), want)
	_, e := math.Frexp(got)
	f, _ := d.SetMantExp(d, 53-e).Float64()
	return math.Abs(f)
}

// TestLinkTrueError measures both functions against 256-bit references on
// a sample dense where the error peaks (|eta| of a few units) and thin out
// to |eta| = 700. The bounds are the ones DESIGN.md quotes.
func TestLinkTrueError(t *testing.T) {
	var x []float64
	for i, v := range linkGrid()[32:] {
		if math.Abs(v) <= 700 && (i%4 == 0 && i < 24000 || i%4 != 0 && i < 6000) {
			x = append(x, v)
		}
	}
	l, q, e := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
	LogisticBlock(x, l, q)
	ExpBlock(e, x)
	var worstL, worstQ, worstE float64
	for i, v := range x {
		ev := bigExp(bigF(v))
		worstE = math.Max(worstE, ulpErr(e[i], ev))
		z := bigExp(bigF(-math.Abs(v)))
		wantL := bigLog1p(z)
		if v > 0 {
			wantL.Add(wantL, bigF(v))
		}
		worstL = math.Max(worstL, ulpErr(l[i], wantL))
		wantQ := new(big.Float).Quo(ev, new(big.Float).Add(bigF(1), ev))
		worstQ = math.Max(worstQ, ulpErr(q[i], wantQ))
	}
	t.Logf("%d points, worst true error in ulp: log1pexp %.2f, invlogit %.2f, exp %.2f", len(x), worstL, worstQ, worstE)
	if worstL > 3 || worstQ > 3 || worstE > 1 {
		t.Errorf("true error above bound (3, 3, 1 ulp): log1pexp %.2f, invlogit %.2f, exp %.2f", worstL, worstQ, worstE)
	}
}

// TestLinkShape: invlogit stays in [0, 1] and does not decrease, and
// log1pexp(eta) >= max(eta, 0), across the sorted grid.
func TestLinkShape(t *testing.T) {
	x := linkGrid()
	keep := x[:0]
	for _, v := range x {
		if v == v {
			keep = append(keep, v)
		}
	}
	x = keep
	sort.Float64s(x)
	l, q := make([]float64, len(x)), make([]float64, len(x))
	LogisticBlock(x, l, q)
	for i, v := range x {
		if !(q[i] >= 0 && q[i] <= 1) {
			t.Fatalf("invlogit(%v) = %v outside [0, 1]", v, q[i])
		}
		if !(l[i] >= math.Max(v, 0)) {
			t.Fatalf("log1pexp(%v) = %v below max(eta, 0)", v, l[i])
		}
		// Neighbouring grid points closer than the function's own error
		// may swap by an ulp; anything more is a real inversion.
		if i > 0 && q[i] < q[i-1] && ulps(q[i], q[i-1]) > 4 {
			t.Fatalf("invlogit decreases: %v -> %v at %v -> %v", q[i-1], q[i], x[i-1], v)
		}
	}
}

// TestLinkSpecialValues pins the special-value table of DESIGN.md "Vector
// link layer" on whichever encoding this CPU runs, and on the Go one.
func TestLinkSpecialValues(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	tiny := math.Exp(-708)
	in := []float64{0, math.Copysign(0, -1), inf, -inf, nan, -1000, 1000, 5e-324}
	wantL := []float64{math.Ln2, math.Ln2, inf, tiny, nan, tiny, 1000, math.Ln2}
	wantQ := []float64{0.5, 0.5, 1, tiny, nan, tiny, 1, 0.5}
	wantE := []float64{1, 1, inf, 0, nan, 0, inf, 1}
	check := func(name string, got, want []float64, tol float64) {
		t.Helper()
		for i := range want {
			ok := got[i] == want[i] || math.Abs(got[i]-want[i]) <= tol*math.Abs(want[i])
			if want[i] != want[i] {
				ok = math.Float64bits(got[i]) == math.Float64bits(nanOut)
			}
			if !ok {
				t.Errorf("%s(%v) = %v, want %v", name, in[i], got[i], want[i])
			}
		}
	}
	l, q, e := make([]float64, len(in)), make([]float64, len(in)), make([]float64, len(in))
	for _, enc := range []struct {
		name     string
		logistic func(eta, l, q []float64)
		exp      func(dst, x []float64)
	}{{VectorISA(), LogisticBlock, ExpBlock}, {"generic", logisticGo, expGo}} {
		enc.logistic(in, l, q)
		enc.exp(e, in)
		check(enc.name+" log1pexp", l, wantL, 1e-15)
		check(enc.name+" invlogit", q, wantQ, 1e-15)
		check(enc.name+" exp", e, wantE, 0)
	}
	// math.Exp's thresholds: finite and non-zero just inside them.
	ExpBlock(e[:4], []float64{709.78, 709.79, -745.13, -745.14})
	if math.IsInf(e[0], 0) || !math.IsInf(e[1], 1) || e[2] != 5e-324 || e[3] != 0 {
		t.Errorf("exp at the range ends = %v, want [1.797e308 +Inf 5e-324 0]", e[:4])
	}
}

// FuzzLinkTwin: for any four float64 bit patterns the two encodings agree
// bit for bit, and a finite input never produces NaN, nor a non-finite
// logistic pair (exp may overflow to +Inf).
func FuzzLinkTwin(f *testing.F) {
	f.Add(uint64(0), uint64(1)<<63, math.Float64bits(709.78), math.Float64bits(-745.13))
	f.Add(math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()), uint64(1), math.Float64bits(-708))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		x := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d)}
		var l, q, e, lg, qg, eg [4]float64
		LogisticBlock(x, l[:], q[:])
		ExpBlock(e[:], x)
		logisticGo(x, lg[:], qg[:])
		expGo(eg[:], x)
		if sameBits(l[:], lg[:]) >= 0 || sameBits(q[:], qg[:]) >= 0 || sameBits(e[:], eg[:]) >= 0 {
			t.Fatalf("encodings differ on %x: l %x/%x q %x/%x exp %x/%x", x, l, lg, q, qg, e, eg)
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if math.IsNaN(l[i]) || math.IsInf(l[i], 0) || math.IsNaN(q[i]) || math.IsInf(q[i], 0) || math.IsNaN(e[i]) {
				t.Fatalf("finite %v gave log1pexp %v, invlogit %v, exp %v", v, l[i], q[i], e[i])
			}
		}
	})
}

// benchLink times one block on both encodings at three sizes: 128
// observations, the block glmShard hands over, and 7 and 22, the calls
// butterfly@0.25 and survival make, which end in a partial four-lane
// group.
func benchLink(b *testing.B, run func(x, l, q []float64)) {
	for _, n := range []int{7, 22, 128} {
		x := linkGrid()[64 : 64+n]
		for i := range x {
			x[i] = math.Mod(x[i], 20)
		}
		l, q := make([]float64, n), make([]float64, n)
		for _, enc := range []struct {
			name   string
			vector bool
		}{{"vector", true}, {"generic", false}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, enc.name), func(b *testing.B) {
				if enc.vector && !useVector {
					b.Skip("no vector encoding on this CPU")
				}
				defer func(was bool) { useVector = was }(useVector)
				useVector = enc.vector
				for i := 0; i < b.N; i++ {
					run(x, l, q)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/obs")
			})
		}
	}
}

func BenchmarkLogisticBlock(b *testing.B) { benchLink(b, LogisticBlock) }

func BenchmarkExpBlock(b *testing.B) {
	benchLink(b, func(x, l, _ []float64) { ExpBlock(l, x) })
}
