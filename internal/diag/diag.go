// Package diag implements the convergence diagnostics the paper's
// computation-elision mechanism is built on: the Gelman-Rubin potential
// scale reduction factor R̂ (split form, as Stan computes it), effective
// sample size, the moment-matched Gaussian KL divergence used as the
// paper's result-quality metric (§VI-A, ref [38]), and posterior
// summaries.
package diag

import (
	"math"
	"sort"

	"bayessuite/internal/mathx"
)

// RHat computes the Gelman-Rubin potential scale reduction factor for one
// scalar parameter across chains. chains[c][i] is draw i of chain c. All
// chains must have equal length n >= 2.
//
// R̂ = sqrt(((n-1)/n * W + B/n) / W), with B the between-chain and W the
// within-chain variance (Gelman & Rubin 1992, as in the paper §VI-A).
func RHat(chains [][]float64) float64 {
	m := len(chains)
	if m < 2 {
		return math.NaN()
	}
	n := len(chains[0])
	if n < 2 {
		return math.NaN()
	}
	means := make([]float64, m)
	vars := make([]float64, m)
	for c, ch := range chains {
		if len(ch) != n {
			panic("diag: RHat chains of unequal length")
		}
		means[c], vars[c] = mathx.MeanVar(ch)
	}
	return RHatFromMoments(means, vars, n)
}

// RHatFromMoments computes the Gelman-Rubin statistic from per-chain
// sample moments: means[c] and vars[c] (unbiased) over n draws of chain c.
// This is the formula RHat applies after computing the moments; streaming
// detectors that maintain moments incrementally call it directly so the
// two paths agree to rounding error.
func RHatFromMoments(means, vars []float64, n int) float64 {
	m := len(means)
	if m < 2 || n < 2 {
		return math.NaN()
	}
	grand := mathx.Mean(means)
	b := 0.0
	for _, mu := range means {
		d := mu - grand
		b += d * d
	}
	b *= float64(n) / float64(m-1)
	w := mathx.Mean(vars)
	if w <= 0 {
		// Degenerate (constant chains): converged by definition.
		if b == 0 {
			return 1
		}
		return math.Inf(1)
	}
	varPlus := float64(n-1)/float64(n)*w + b/float64(n)
	return math.Sqrt(varPlus / w)
}

// SplitRHat splits each chain in half (Stan's convention, which also
// detects within-chain drift) and computes R̂ over the 2m half-chains.
func SplitRHat(chains [][]float64) float64 {
	var halves [][]float64
	for _, ch := range chains {
		n := len(ch)
		if n < 4 {
			return math.NaN()
		}
		h := n / 2
		halves = append(halves, ch[:h], ch[n-2*h+h:])
	}
	return RHat(halves)
}

// maxOverParams applies a per-parameter multi-chain statistic and
// returns its maximum across parameters.
func maxOverParams(draws [][][]float64, stat func([][]float64) float64) float64 {
	if len(draws) == 0 || len(draws[0]) == 0 {
		return math.NaN()
	}
	dim := len(draws[0][0])
	maxR := 0.0
	scratch := make([][]float64, len(draws))
	for d := 0; d < dim; d++ {
		for c := range draws {
			col := make([]float64, len(draws[c]))
			for i := range draws[c] {
				col[i] = draws[c][i][d]
			}
			scratch[c] = col
		}
		r := stat(scratch)
		if math.IsNaN(r) {
			return math.NaN()
		}
		if r > maxR {
			maxR = r
		}
	}
	return maxR
}

// MaxSplitRHat computes split-R̂ for every parameter and returns the
// maximum. draws[c][i][d] is parameter d of draw i in chain c.
func MaxSplitRHat(draws [][][]float64) float64 {
	return maxOverParams(draws, SplitRHat)
}

// MaxRHat computes the classic (non-split) Gelman-Rubin R̂ for every
// parameter and returns the maximum — the diagnostic of ref [37] that the
// paper's runtime convergence detection thresholds against 1.1. It fires
// earlier than the split variant; chains must number at least 2.
func MaxRHat(draws [][][]float64) float64 {
	return maxOverParams(draws, RHat)
}

// maxOverParamsCols is the column-major counterpart of maxOverParams:
// cols[c][d] is already parameter d's series in chain c, so no per-column
// copies are made.
func maxOverParamsCols(cols [][][]float64, stat func([][]float64) float64) float64 {
	if len(cols) == 0 || len(cols[0]) == 0 {
		return math.NaN()
	}
	dim := len(cols[0])
	maxR := 0.0
	scratch := make([][]float64, len(cols))
	for d := 0; d < dim; d++ {
		for c := range cols {
			scratch[c] = cols[c][d]
		}
		r := stat(scratch)
		if math.IsNaN(r) {
			return math.NaN()
		}
		if r > maxR {
			maxR = r
		}
	}
	return maxR
}

// MaxSplitRHatCols computes max split-R̂ over parameters from column-major
// draws (cols[c][d][i] = parameter d of draw i in chain c), avoiding the
// row-to-column transpose copies MaxSplitRHat performs. The mcmc package's
// flat sample buffers produce this layout zero-copy.
func MaxSplitRHatCols(cols [][][]float64) float64 {
	return maxOverParamsCols(cols, SplitRHat)
}

// ESS estimates the effective sample size of one scalar parameter across
// chains using the initial-monotone-sequence autocorrelation estimator
// (Geyer 1992), the same family Stan uses.
func ESS(chains [][]float64) float64 {
	m := len(chains)
	if m == 0 {
		return 0
	}
	n := len(chains[0])
	if n < 4 {
		return 0
	}
	// Per-chain autocovariance via direct sums (n is small in our use).
	means := make([]float64, m)
	vars := make([]float64, m)
	for c, ch := range chains {
		means[c], vars[c] = mathx.MeanVar(ch)
	}
	w := mathx.Mean(vars)
	grand := 0.0
	for _, mu := range means {
		grand += mu
	}
	grand /= float64(m)
	b := 0.0
	for _, mu := range means {
		d := mu - grand
		b += d * d
	}
	if m > 1 {
		b *= float64(n) / float64(m-1)
	}
	varPlus := float64(n-1)/float64(n)*w + b/float64(n)
	if varPlus <= 0 {
		return float64(m * n)
	}

	acov := func(ch []float64, mu float64, t int) float64 {
		s := 0.0
		for i := 0; i+t < len(ch); i++ {
			s += (ch[i] - mu) * (ch[i+t] - mu)
		}
		return s / float64(len(ch))
	}

	// rho_t = 1 - (W - mean_c acov_t) / varPlus
	maxLag := n - 1
	if maxLag > 500 {
		maxLag = 500
	}
	rho := make([]float64, maxLag)
	for t := 1; t < maxLag; t++ {
		a := 0.0
		for c, ch := range chains {
			a += acov(ch, means[c], t)
		}
		a /= float64(m)
		rho[t] = 1 - (w-a)/varPlus
	}
	// Initial monotone positive sequence over pair sums.
	sum := 0.0
	prevPair := math.Inf(1)
	for t := 1; t+1 < maxLag; t += 2 {
		pair := rho[t] + rho[t+1]
		if pair < 0 {
			break
		}
		if pair > prevPair {
			pair = prevPair
		}
		prevPair = pair
		sum += pair
	}
	ess := float64(m*n) / (1 + 2*sum)
	if ess > float64(m*n) {
		ess = float64(m * n)
	}
	if ess < 1 {
		ess = 1
	}
	return ess
}

// GaussianKL returns KL(P || Q) between two moment-matched diagonal
// Gaussians fitted to two sample sets — the paper's quality metric for
// comparing intermediate posteriors against the ground truth (§VI-A).
// p[i][d] and q[i][d] are draws; the result is averaged over dimensions.
func GaussianKL(p, q [][]float64) float64 {
	if len(p) == 0 || len(q) == 0 {
		return math.NaN()
	}
	dim := len(p[0])
	total := 0.0
	colP := make([]float64, len(p))
	colQ := make([]float64, len(q))
	for d := 0; d < dim; d++ {
		for i := range p {
			colP[i] = p[i][d]
		}
		for i := range q {
			colQ[i] = q[i][d]
		}
		mp, vp := mathx.MeanVar(colP)
		mq, vq := mathx.MeanVar(colQ)
		const floor = 1e-12
		if vp < floor {
			vp = floor
		}
		if vq < floor {
			vq = floor
		}
		// KL(N(mp,vp) || N(mq,vq))
		kl := 0.5 * (math.Log(vq/vp) + (vp+(mp-mq)*(mp-mq))/vq - 1)
		total += kl
	}
	return total / float64(dim)
}

// FlattenChains concatenates per-chain draws into one pooled sample.
func FlattenChains(draws [][][]float64) [][]float64 {
	var out [][]float64
	for _, ch := range draws {
		out = append(out, ch...)
	}
	return out
}

// Summary holds posterior summary statistics for one parameter.
type Summary struct {
	Name   string
	Mean   float64
	SD     float64
	Q05    float64
	Median float64
	Q95    float64
	RHat   float64
	ESS    float64
}

// Summarize computes per-parameter summaries from multi-chain draws
// (already trimmed of warmup). names may be nil.
func Summarize(draws [][][]float64, names []string) []Summary {
	if len(draws) == 0 || len(draws[0]) == 0 {
		return nil
	}
	dim := len(draws[0][0])
	out := make([]Summary, dim)
	cols := make([][]float64, len(draws))
	for d := 0; d < dim; d++ {
		var pooled []float64
		for c := range draws {
			col := make([]float64, len(draws[c]))
			for i := range draws[c] {
				col[i] = draws[c][i][d]
			}
			cols[c] = col
			pooled = append(pooled, col...)
		}
		mean, v := mathx.MeanVar(pooled)
		sorted := append([]float64(nil), pooled...)
		sort.Float64s(sorted)
		s := Summary{
			Mean:   mean,
			SD:     math.Sqrt(v),
			Q05:    mathx.Quantile(sorted, 0.05),
			Median: mathx.Quantile(sorted, 0.5),
			Q95:    mathx.Quantile(sorted, 0.95),
			RHat:   SplitRHat(cols),
			ESS:    ESS(cols),
		}
		if names != nil && d < len(names) {
			s.Name = names[d]
		}
		out[d] = s
	}
	return out
}
