package kernels

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// GPNormal is the fused likelihood of S series observed at n shared
// inputs, each a non-centred draw from a squared-exponential Gaussian
// process around its own level:
//
//	K_ab    = alpha² exp(-(x_a-x_b)² / (2 rho²)) + jitter·[a = b]
//	L       = chol(K)
//	y[s][a] ~ Normal(mu0 + tau·muRaw_s + (L z_s)_a, sigma)
//
// The forward pass is the kernel matrix, its Cholesky factor, S
// matrix-vector products and the normal sum, all in floats; the kernel
// matrix's n(n+1)/2 exponentials come from one mathx.ExpBlock call over
// the packed lower triangle. The reverse pass seeds Lbar = sum_s r_s z_sᵀ
// (r the residual partials), pulls it back through the factorization with
// the reverse of the column Cholesky recurrence (cholReverse), and
// contracts the result with dK/dalpha and dK/drho — O(n³ + S n²)
// arithmetic and one tape node, where the recorder path spends a node on
// every scalar step of the factorization.
type GPNormal struct {
	n      int
	d2     []float64   // squared input distances, packed lower triangle (row a holds b <= a)
	y      [][]float64 // one row of n observations per series
	jitter float64
}

// NewGPNormal builds the kernel over inputs x and observations y[series].
func NewGPNormal(x []float64, y [][]float64, jitter float64) *GPNormal {
	n := len(x)
	k := &GPNormal{n: n, d2: make([]float64, 0, n*(n+1)/2), y: y, jitter: jitter}
	for a := 0; a < n; a++ {
		for b := 0; b <= a; b++ {
			d := x[a] - x[b]
			k.d2 = append(k.d2, d*d)
		}
	}
	for _, row := range y {
		if len(row) != n {
			panic("kernels: GP series length != inputs")
		}
	}
	return k
}

// LogLik records the whole-dataset log-likelihood as one tape node with
// edges for alpha, rho, sigma, mu0, tau, muRaw (series) and z (series x
// n), in that order. It panics with ad.ErrIndefinite when the kernel
// matrix is not numerically positive definite, as ad.CholeskyVar does.
func (k *GPNormal) LogLik(t *ad.Tape, alpha, rho, sigma, mu0, tau ad.Var, muRaw, z []ad.Var) ad.Var {
	n, nS := k.n, len(k.y)
	if len(muRaw) != nS || len(z) != nS*n {
		panic("kernels: GP parameter lengths do not match the data")
	}
	nIn, nTri := 5+nS+nS*n, len(k.d2)
	buf := t.Scratch(nIn + nTri + 2*n*n + 2*n)
	d := buf[:nIn]
	dRaw, dZ := d[5:5+nS], d[5+nS:]
	e := buf[nIn : nIn+nTri] // exp(-d²/(2 rho²)), packed like d2
	l := buf[nIn+nTri : nIn+nTri+n*n]
	lbar := buf[nIn+nTri+n*n : nIn+nTri+2*n*n]
	zs, r := buf[nIn+nTri+2*n*n:nIn+nTri+2*n*n+n], buf[nIn+nTri+2*n*n+n:]

	a2 := alpha.Value() * alpha.Value()
	rhoV := rho.Value()
	inv2 := 0.5 * (1 / (rhoV * rhoV))
	for p, v := range k.d2 {
		e[p] = inv2 * -v
	}
	mathx.ExpBlock(e, e)
	for a, p := 0, 0; a < n; a++ {
		for b := 0; b <= a; b, p = b+1, p+1 {
			l[a*n+b] = float64(a2 * e[p])
			lbar[a*n+b] = 0
		}
		l[a*n+a] += k.jitter
	}
	cholLower(l, n)

	sig := sigma.Value()
	inv := 1 / sig
	tauV := tau.Value()
	val := float64(nS*n) * (-math.Log(sig) - mathx.LnSqrt2Pi)
	var dSigma, dMu0, dTau float64
	for s := 0; s < nS; s++ {
		mu := mu0.Value() + float64(tauV*muRaw[s].Value())
		for a := 0; a < n; a++ {
			zs[a] = z[s*n+a].Value()
		}
		dMu := 0.0
		for a := 0; a < n; a++ {
			f := 0.0
			for b := 0; b <= a; b++ {
				f += float64(l[a*n+b] * zs[b])
			}
			u := (k.y[s][a] - (mu + f)) * inv
			val += float64(-0.5 * u * u)
			r[a] = float64(u * inv)
			dMu += r[a]
			dSigma += float64((float64(u*u) - 1) * inv)
		}
		dMu0 += dMu
		dTau += float64(dMu * muRaw[s].Value())
		dRaw[s] = dMu * tauV
		// f = L z_s: Lbar += r z_sᵀ on the lower triangle, zbar_s = Lᵀ r.
		for b := 0; b < n; b++ {
			g := 0.0
			for a := b; a < n; a++ {
				lbar[a*n+b] += float64(r[a] * zs[b])
				g += float64(l[a*n+b] * r[a])
			}
			dZ[s*n+b] = g
		}
	}

	// lbar becomes Kbar; K_ab = a2·e_ab (+ jitter), e_ab = exp(-d²_ab·inv2).
	cholReverse(l, lbar, n)
	var dA2, dInv2 float64
	for a, p := 0, 0; a < n; a++ {
		for b := 0; b <= a; b, p = b+1, p+1 {
			kb := lbar[a*n+b]
			dA2 += float64(kb * e[p])
			dInv2 -= float64(kb * a2 * e[p] * k.d2[p])
		}
	}
	d[0] = dA2 * 2 * alpha.Value()
	d[1] = dInv2 * -2 * inv2 / rhoV
	d[2], d[3], d[4] = dSigma, dMu0, dTau

	ins := t.ScratchVars(nIn)
	ins[0], ins[1], ins[2], ins[3], ins[4] = alpha, rho, sigma, mu0, tau
	copy(ins[5:], muRaw)
	copy(ins[5+nS:], z)
	return t.CustomChecked("gp_normal", val, ins, d)
}

// cholLower overwrites the lower triangle of the symmetric positive
// definite row-major n x n matrix a with its Cholesky factor, column by
// column in the order ad.CholeskyVar records it:
//
//	l_jj = sqrt(a_jj - sum_{k<j} l_jk²)
//	l_ij = (a_ij - sum_{k<j} l_ik l_jk) / l_jj      (i > j)
func cholLower(a []float64, n int) {
	for j := 0; j < n; j++ {
		dj := a[j*n+j]
		for k := 0; k < j; k++ {
			dj -= float64(a[j*n+k] * a[j*n+k])
		}
		if dj <= 0 {
			panic(ad.ErrIndefinite)
		}
		ljj := math.Sqrt(dj)
		a[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= float64(a[i*n+k] * a[j*n+k])
			}
			a[i*n+j] = s / ljj
		}
	}
}

// cholReverse is the reverse sweep of cholLower: given the factor l and,
// in the lower triangle of bar, the adjoint of every l_ij, it overwrites
// bar with the adjoint of every a_ij (i >= j) the factorization read.
// Columns are undone last to first. Within column j each l_ij = s/l_jj
// gives sbar = bar_ij / l_jj, which is abar_ij, flows -sbar·l_jk into
// bar_ik and -sbar·l_ik into bar_jk for k < j, and -sbar·l_ij into
// bar_jj; then l_jj = sqrt(d) gives dbar = bar_jj / (2 l_jj), which is
// abar_jj and flows -2 dbar·l_jk into bar_jk. By the time column j is
// undone every later column has already delivered its share of bar_·j.
func cholReverse(l, bar []float64, n int) {
	for j := n - 1; j >= 0; j-- {
		ljj := l[j*n+j]
		for i := n - 1; i > j; i-- {
			sbar := bar[i*n+j] / ljj
			bar[j*n+j] -= float64(sbar * l[i*n+j])
			for k := 0; k < j; k++ {
				bar[i*n+k] -= float64(sbar * l[j*n+k])
				bar[j*n+k] -= float64(sbar * l[i*n+k])
			}
			bar[i*n+j] = sbar
		}
		dbar := bar[j*n+j] / (2 * ljj)
		for k := 0; k < j; k++ {
			bar[j*n+k] -= float64(2 * dbar * l[j*n+k])
		}
		bar[j*n+j] = dbar
	}
}
