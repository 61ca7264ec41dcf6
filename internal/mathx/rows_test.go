package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowValue draws one input for the row-pass tests: mostly ordinary
// numbers, often signed zeros (a row of -0 products is where a wrong
// starting value or fold order shows), sometimes infinities, subnormals
// and, when nan is set, NaN.
func rowValue(r *rand.Rand, nan bool) float64 {
	switch k := r.Intn(20); {
	case k < 9:
		return 3 * r.NormFloat64()
	case k < 12:
		return math.Copysign(0, float64(r.Intn(2))-0.5)
	case k < 14:
		return math.Copysign(5e-324*float64(1+r.Intn(1000)), r.NormFloat64())
	case k < 15:
		return math.Copysign(math.Inf(1), r.NormFloat64())
	case k < 16 && nan:
		return math.NaN()
	case k < 18:
		return 1e300 * r.NormFloat64()
	default:
		return math.Copysign(1e-300*r.Float64(), r.NormFloat64())
	}
}

// sameOrBothNaN is sameBits with every NaN equal to every other: NaN
// payloads differ between the encodings' operand orders.
func sameOrBothNaN(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

// rowCase is one call of both row passes: n rows of p columns starting
// at offset base of their backing arrays, with nGroups group effects (0
// for none).
type rowCase struct {
	n, p, base, nGroups int
	x, beta, eta, r     []float64
	group               []int
	u                   []float64
}

func newRowCase(rnd *rand.Rand, n, p, base, nGroups int, nan bool) rowCase {
	fill := func(m int) []float64 {
		s := make([]float64, base+m)
		for i := range s {
			s[i] = rowValue(rnd, nan)
		}
		return s[base:]
	}
	c := rowCase{n: n, p: p, base: base, nGroups: nGroups,
		x: fill(n * p), beta: fill(p), eta: fill(n), r: fill(n)}
	if nGroups > 0 {
		c.u = fill(nGroups)
		c.group = make([]int, n)
		for j := range c.group {
			c.group[j] = rnd.Intn(nGroups)
			if j > 0 && rnd.Intn(3) == 0 {
				c.group[j] = c.group[j-1] // runs of one group, as sorted data has
			}
		}
	}
	return c
}

// zeroed returns c with every float input replaced by a signed zero:
// whether a sum starts at +0 or at its first term shows only where every
// term is -0, which mixed inputs make too rare to test.
func (c rowCase) zeroed(rnd *rand.Rand) rowCase {
	for _, s := range [][]float64{c.x, c.beta, c.eta, c.r, c.u} {
		for i := range s {
			s[i] = math.Copysign(0, float64(rnd.Intn(2))-0.5)
		}
	}
	return c
}

// check runs DotRows and AxpyRows (whichever encoding the CPU selects)
// and the Go bodies on copies of c's inputs and reports the first output
// on which they differ.
func (c rowCase) check() error {
	eta, etaGo := append([]float64(nil), c.eta...), append([]float64(nil), c.eta...)
	DotRows(eta, c.x, c.beta, c.group, c.u)
	dotRowsGo(etaGo, c.x, c.beta, c.group, c.u)
	if i := sameOrBothNaN(eta, etaGo); i >= 0 {
		return fmt.Errorf("DotRows n=%d p=%d base=%d groups=%d: eta[%d] %x, Go %x", c.n, c.p, c.base, c.nGroups, i, eta[i], etaGo[i])
	}
	// The accumulators start from values of their own, as a block after
	// the first does.
	dBeta, dBetaGo := append([]float64(nil), c.beta...), append([]float64(nil), c.beta...)
	dU, dUGo := append([]float64(nil), c.u...), append([]float64(nil), c.u...)
	AxpyRows(dBeta, c.x, c.r, c.group, dU)
	axpyRowsGo(dBetaGo, c.x, c.r, c.group, dUGo)
	if i := sameOrBothNaN(dBeta, dBetaGo); i >= 0 {
		return fmt.Errorf("AxpyRows n=%d p=%d base=%d groups=%d: dBeta[%d] %x, Go %x", c.n, c.p, c.base, c.nGroups, i, dBeta[i], dBetaGo[i])
	}
	if i := sameOrBothNaN(dU, dUGo); i >= 0 {
		return fmt.Errorf("AxpyRows n=%d p=%d base=%d groups=%d: dU[%d] %x, Go %x", c.n, c.p, c.base, c.nGroups, i, dU[i], dUGo[i])
	}
	return nil
}

// TestRowsTwin: the assembly row passes and the Go bodies agree bit for
// bit (NaN for NaN) for p = 1..20 (outside 4..16 both sides run Go), at
// every row count mod 4, from every base alignment, with and without
// group effects, on inputs full of signed zeros, infinities and
// subnormals, with NaNs, and on signed zeros alone.
func TestRowsTwin(t *testing.T) {
	if !useVector {
		t.Skip("no vector encoding on this CPU")
	}
	rnd := rand.New(rand.NewSource(39))
	for p := 1; p <= 20; p++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 128, 131} {
			for base := 0; base < 4; base++ {
				for _, nGroups := range []int{0, 1, 7} {
					for _, nan := range []bool{false, true} {
						c := newRowCase(rnd, n, p, base, nGroups, nan)
						if err := c.check(); err != nil {
							t.Fatal(err)
						}
						if err := c.zeroed(rnd).check(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// TestRowsBadGroup: a group index outside u (or dU) panics as the Go
// encoding's index check does, from either encoding, after the rows
// before it are done.
func TestRowsBadGroup(t *testing.T) {
	rnd := rand.New(rand.NewSource(40))
	for _, bad := range []int{-1, 7} {
		c := newRowCase(rnd, 9, 13, 0, 7, false)
		c.group[6] = bad
		for _, pass := range []struct {
			name string
			run  func()
		}{
			{"DotRows", func() { DotRows(c.eta, c.x, c.beta, c.group, c.u) }},
			{"AxpyRows", func() { AxpyRows(c.beta, c.x, c.r, c.group, c.u) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with group index %d did not panic", pass.name, bad)
					}
				}()
				pass.run()
			}()
		}
	}
}

// FuzzRowsTwin: on any row count, column count, alignment and float64
// bit patterns the two encodings agree.
func FuzzRowsTwin(f *testing.F) {
	f.Add(uint8(13), uint8(5), uint8(1), uint8(3), int64(1), uint64(1)<<63, math.Float64bits(math.Inf(1)), false)
	f.Add(uint8(16), uint8(8), uint8(0), uint8(0), int64(2), uint64(1), math.Float64bits(math.NaN()), true)
	f.Fuzz(func(t *testing.T, p, n, base, nGroups uint8, seed int64, v1, v2 uint64, zeros bool) {
		rnd := rand.New(rand.NewSource(seed))
		c := newRowCase(rnd, int(n%40), 1+int(p%20), int(base%4), int(nGroups%9), true)
		if zeros {
			c = c.zeroed(rnd)
		}
		// Two inputs the fuzzer picks bit for bit.
		for i, v := range []uint64{v1, v2} {
			if len(c.x) > 0 {
				c.x[(v>>32)%uint64(len(c.x))] = math.Float64frombits(v)
			}
			c.beta[(uint64(i)+v)%uint64(len(c.beta))] = math.Float64frombits(v)
		}
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// benchRows times one 128-row block of the tickets shape (p = 13, 20
// groups), the size glmShard hands over, on both encodings.
func benchRows(b *testing.B, run func(c rowCase)) {
	rnd := rand.New(rand.NewSource(41))
	c := newRowCase(rnd, 128, 13, 0, 20, false)
	// Ordinary numbers only: a subnormal costs a microcode assist.
	for _, s := range [][]float64{c.x, c.beta, c.eta, c.r, c.u} {
		for i := range s {
			s[i] = rnd.NormFloat64()
		}
	}
	for _, enc := range []struct {
		name   string
		vector bool
	}{{"vector", true}, {"generic", false}} {
		b.Run(enc.name, func(b *testing.B) {
			if enc.vector && !useVector {
				b.Skip("no vector encoding on this CPU")
			}
			defer func(was bool) { useVector = was }(useVector)
			useVector = enc.vector
			for i := 0; i < b.N; i++ {
				run(c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.n), "ns/obs")
		})
	}
}

func BenchmarkDotRows(b *testing.B) {
	benchRows(b, func(c rowCase) { DotRows(c.eta, c.x, c.beta, c.group, c.u) })
}

func BenchmarkAxpyRows(b *testing.B) {
	benchRows(b, func(c rowCase) { AxpyRows(c.beta, c.x, c.r, c.group, c.u) })
}
