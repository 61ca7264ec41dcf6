package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentiles are the candidates the percentile rule chooses from.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile applies the reporting rule for a sample of n: the
// highest candidate percentile with at least ten samples beyond it. ok is
// false when even the median has fewer than ten beyond it (n < 20); the
// median is still returned so a caller can report it as under-sampled.
func tailPercentile(n int) (p float64, ok bool) {
	p = tailPercentiles[0]
	for _, c := range tailPercentiles {
		if float64(n)*(100-c)/100 >= 10-1e-9 { // epsilon: 100·(1-0.9) is 9.999… in floating point
			p, ok = c, true
		}
	}
	return p, ok
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (the default
// "exclusive" method), so spreads computed here match the ones the
// acceptance driver computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the run-to-run spread the benchmark contract uses: the
// distance between the first and third quartile as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}
