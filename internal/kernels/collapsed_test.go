package kernels

import (
	"math"
	"testing"

	"bayessuite/internal/rng"
)

// TestCholReverseMatchesFiniteDifferences checks the hand-written reverse
// Cholesky sweep on its own: for f(A) = sum_ij w_ij L_ij(A) over the lower
// triangle, cholReverse seeded with w must return df/dA_ij for every entry
// the factorization reads.
func TestCholReverseMatchesFiniteDifferences(t *testing.T) {
	const n = 6
	r := rng.New(8)
	// A = B Bᵀ + n·I is comfortably positive definite.
	b := make([]float64, n*n)
	for i := range b {
		b[i] = r.Norm()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			for k := 0; k < n; k++ {
				a[i*n+j] += b[i*n+k] * b[j*n+k]
			}
		}
		a[i*n+i] += n
	}
	w := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			w[i*n+j] = r.Norm()
		}
	}
	f := func(a []float64) float64 {
		l := append([]float64(nil), a...)
		cholLower(l, n)
		s := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s += w[i*n+j] * l[i*n+j]
			}
		}
		return s
	}
	l := append([]float64(nil), a...)
	cholLower(l, n)
	bar := append([]float64(nil), w...)
	cholReverse(l, bar, n)
	const h = 1e-6
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			up := append([]float64(nil), a...)
			dn := append([]float64(nil), a...)
			up[i*n+j] += h
			dn[i*n+j] -= h
			fd := (f(up) - f(dn)) / (2 * h)
			if math.Abs(fd-bar[i*n+j]) > 1e-6*(1+math.Abs(fd)) {
				t.Errorf("dA[%d][%d]: reverse sweep %.10g, finite difference %.10g", i, j, bar[i*n+j], fd)
			}
		}
	}
}

// TestCollapsedConstructorsRejectMalformedData covers the build-time
// checks: a count taken from bad data would be silently wrong forever.
func TestCollapsedConstructorsRejectMalformedData(t *testing.T) {
	for name, build := range map[string]func(){
		"cjs last before first":     func() { NewCJS([][]uint8{{1, 0, 0}}, []int{2}, []int{1}, 3) },
		"cjs short history":         func() { NewCJS([][]uint8{{1, 0}}, []int{0}, []int{0}, 3) },
		"occupancy count > visits":  func() { NewOccupancy([][]int{{0, 7}}, 6) },
		"threshold hits > searches": func() { NewThresholdTest([]int{9}, []int{3}, []int{4}, []int{0}, []int{0}, 1, 1, 0.4) },
		"threshold dept range":      func() { NewThresholdTest([]int{9}, []int{3}, []int{1}, []int{1}, []int{0}, 1, 1, 0.4) },
		"gp ragged series":          func() { NewGPNormal([]float64{0, 1, 2}, [][]float64{{1, 2}}, 1e-6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor accepted malformed data", name)
				}
			}()
			build()
		}()
	}
}
