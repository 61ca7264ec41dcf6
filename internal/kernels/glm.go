package kernels

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// glmData is the shared flat layout of a GLM likelihood block:
//
//	eta_i = offset_i + x[i*p : i*p+p]·beta + u[group_i]
//
// x is row-major n×p (nil iff p == 0), offset and group are optional.
// Slices are referenced, not copied; callers must treat them as immutable
// after construction.
type glmData struct {
	n, p    int
	x       []float64
	offset  []float64
	group   []int
	nGroups int

	// batch is the grow-only scratch for the fused multi-parameter sweep
	// (see batch.go); untouched by the single-parameter path.
	batch glmBatch
}

func newGLMData(n, p int, x, offset []float64, group []int, nGroups int) glmData {
	if p > 0 && len(x) != n*p {
		panic("kernels: design matrix length != n*p")
	}
	if p == 0 && len(x) != 0 {
		panic("kernels: design matrix given with p == 0")
	}
	if offset != nil && len(offset) != n {
		panic("kernels: offset length != n")
	}
	if group != nil {
		if len(group) != n {
			panic("kernels: group length != n")
		}
		if nGroups <= 0 {
			panic("kernels: group given with nGroups <= 0")
		}
		for _, g := range group {
			if g < 0 || g >= nGroups {
				panic("kernels: group index out of range")
			}
		}
	} else if nGroups != 0 {
		panic("kernels: nGroups given without group")
	}
	return glmData{n: n, p: p, x: x, offset: offset, group: group, nGroups: nGroups}
}

// fork returns the same data block with empty batch scratch. It reads
// only the immutable fields, so it is safe while d is mid-sweep.
func (d *glmData) fork() glmData {
	return glmData{n: d.n, p: d.p, x: d.x, offset: d.offset, group: d.group, nGroups: d.nGroups}
}

func (d *glmData) check(nBeta, nU int) {
	if nBeta != d.p {
		panic("kernels: beta length != p")
	}
	if nU != d.nGroups {
		panic("kernels: group-effect length != nGroups")
	}
}

// N reports the number of observations the kernel sweeps per evaluation.
func (d *glmData) N() int { return d.n }

type glmFamily uint8

const (
	famBernoulliLogit glmFamily = iota
	famPoissonLog
	famNormalID
)

// opName labels the family in ErrNonFinite reports.
func (f glmFamily) opName() string {
	switch f {
	case famBernoulliLogit:
		return "bernoulli_logit_glm"
	case famPoissonLog:
		return "poisson_log_glm"
	default:
		return "normal_id_glm"
	}
}

// BernoulliLogitGLM is the fused kernel for
// sum_i log Bernoulli(y_i | invlogit(eta_i)), Stan's
// bernoulli_logit_glm_lpmf analogue.
type BernoulliLogitGLM struct {
	glmData
	y  []int
	yf []float64 // y widened once so the sweep is branchless over the outcome
}

// NewBernoulliLogitGLM builds the kernel over binary outcomes y (0/1),
// row-major design x (n×p), and optional offset/group structure.
func NewBernoulliLogitGLM(y []int, x []float64, p int, offset []float64, group []int, nGroups int) *BernoulliLogitGLM {
	k := &BernoulliLogitGLM{glmData: newGLMData(len(y), p, x, offset, group, nGroups), y: y}
	k.yf = make([]float64, len(y))
	for i, yi := range y {
		if yi != 0 && yi != 1 {
			panic("kernels: bernoulli outcome not in {0,1}")
		}
		k.yf[i] = float64(yi)
	}
	return k
}

// LogLik records the whole-dataset log-likelihood as one tape node with
// edges for beta (len p) and the group effects u (len nGroups).
func (k *BernoulliLogitGLM) LogLik(t *ad.Tape, beta, u []ad.Var) ad.Var {
	return evalGLM(t, famBernoulliLogit, &k.glmData, k.yf, 0, beta, u, ad.Var{})
}

// PoissonLogGLM is the fused kernel for
// sum_i log Poisson(y_i | exp(eta_i)), Stan's poisson_log_glm_lpmf
// analogue. The sum of log y_i! normalising constants is precomputed at
// construction instead of being re-evaluated every leapfrog step.
type PoissonLogGLM struct {
	glmData
	yf          []float64
	lgammaConst float64
}

// NewPoissonLogGLM builds the kernel over count outcomes y.
func NewPoissonLogGLM(y []int, x []float64, p int, offset []float64, group []int, nGroups int) *PoissonLogGLM {
	k := &PoissonLogGLM{glmData: newGLMData(len(y), p, x, offset, group, nGroups)}
	k.yf = make([]float64, len(y))
	for i, yi := range y {
		if yi < 0 {
			panic("kernels: poisson outcome < 0")
		}
		fy := float64(yi)
		k.yf[i] = fy
		k.lgammaConst += mathx.Lgamma(fy + 1)
	}
	return k
}

// LogLik records the whole-dataset log-likelihood as one tape node with
// edges for beta (len p) and the group effects u (len nGroups).
func (k *PoissonLogGLM) LogLik(t *ad.Tape, beta, u []ad.Var) ad.Var {
	return evalGLM(t, famPoissonLog, &k.glmData, k.yf, -k.lgammaConst, beta, u, ad.Var{})
}

// NormalIDGLM is the fused kernel for
// sum_i log N(y_i | eta_i, sigma), Stan's normal_id_glm_lpdf analogue.
type NormalIDGLM struct {
	glmData
	y []float64
}

// NewNormalIDGLM builds the kernel over real outcomes y.
func NewNormalIDGLM(y []float64, x []float64, p int, offset []float64, group []int, nGroups int) *NormalIDGLM {
	return &NormalIDGLM{glmData: newGLMData(len(y), p, x, offset, group, nGroups), y: y}
}

// LogLik records the whole-dataset log-likelihood as one tape node with
// edges for beta (len p), the group effects u (len nGroups), and sigma.
func (k *NormalIDGLM) LogLik(t *ad.Tape, beta, u []ad.Var, sigma ad.Var) ad.Var {
	return evalGLM(t, famNormalID, &k.glmData, k.y, 0, beta, u, sigma)
}

// evalGLM is the one cache-friendly pass shared by the three GLM
// families. yf carries the outcomes pre-widened to float64 (bernoulli
// 0/1, poisson counts, normal responses). valConst is a data-only
// additive term applied once after reduction.
//
// Per shard s it accumulates into a disjoint, cache-line padded slot:
//
//	acc[s] = [val, dBeta[0..p), dU[0..nGroups), dSigma]
//
// then reduces slots sequentially in shard order and records one
// Tape.Custom node. All buffers come from the tape scratch arenas, so the
// steady-state path allocates nothing, and evaluations on different tapes
// may run concurrently over the same kernel.
func evalGLM(t *ad.Tape, fam glmFamily, d *glmData, yf []float64, valConst float64, beta, u []ad.Var, sigma ad.Var) ad.Var {
	d.check(len(beta), len(u))
	n, p, g := d.n, d.p, d.nGroups
	width := padWidth(2 + p + g)
	ns := shardCount(n)

	betaVals := t.Scratch(p)
	uVals := t.Scratch(g)
	// Over-allocate by a cache line and align so each shard's padded row
	// owns whole lines (see the layout invariant at padWidth) — the tape
	// arena only guarantees 8-byte alignment.
	acc := alignRows(t.Scratch(ns*width + accPad))[:ns*width]
	res := t.Scratch(2 + p + g)
	for j, b := range beta {
		betaVals[j] = b.Value()
	}
	for j, uj := range u {
		uVals[j] = uj.Value()
	}

	var sigV, sigInv float64
	if fam == famNormalID {
		sigV = sigma.Value()
		sigInv = 1 / sigV
	}

	for s := 0; s < ns; s++ {
		lo, hi := shardRange(n, ns, s)
		glmShard(fam, d, yf, betaVals, uVals, sigInv, acc[s*width:s*width+width], lo, hi)
	}

	// Sequential in-order reduction over the fixed shard geometry.
	for m := range res {
		res[m] = 0
	}
	for s := 0; s < ns; s++ {
		a := acc[s*width : s*width+width]
		for m := range res {
			res[m] += a[m]
		}
	}
	val := res[0] + valConst
	nIns := p + g
	if fam == famNormalID {
		val += float64(n) * (-math.Log(sigV) - mathx.LnSqrt2Pi)
		nIns++
	}
	// Typed non-finite detection: a NaN value or non-finite partial is
	// raised here, with the offending parameter index, instead of flowing
	// into the tape and surfacing later as an unattributable NaN draw.
	// (-Inf values pass: they are ordinary rejections.)
	if err := ad.CheckFinite(fam.opName(), val, res[1:1+nIns]); err != nil {
		panic(err)
	}
	ins := t.ScratchVars(nIns)
	copy(ins, beta)
	copy(ins[p:], u)
	if fam == famNormalID {
		ins[p+g] = sigma
	}
	return t.Custom(val, ins, res[1:1+nIns])
}

// glmShard sweeps observations [lo, hi) of shard s and writes its partial
// sums into the shard's disjoint accumulator slot
// acc[s*width : (s+1)*width] = [val, dBeta[p], dU[nGroups], dSigma].
func glmShard(fam glmFamily, d *glmData, yf []float64, betaVals, uVals []float64, sigInv float64, a []float64, lo, hi int) {
	p, g := d.p, d.nGroups
	for i := range a {
		a[i] = 0
	}
	dBeta := a[1 : 1+p]
	dU := a[1+p : 1+p+g]
	var val, dSig float64
	for i := lo; i < hi; i++ {
		eta := 0.0
		if d.offset != nil {
			eta = d.offset[i]
		}
		switch {
		case p == 1:
			eta += d.x[i] * betaVals[0]
		case p == 2:
			eta += d.x[2*i]*betaVals[0] + d.x[2*i+1]*betaVals[1]
		case p > 0:
			xr := d.x[i*p : i*p+p]
			bv := betaVals[:len(xr)]
			// Four independent accumulators break the serial FP-add
			// latency chain of the row dot product.
			var e0, e1, e2, e3 float64
			j := 0
			for ; j+3 < len(xr); j += 4 {
				e0 += xr[j] * bv[j]
				e1 += xr[j+1] * bv[j+1]
				e2 += xr[j+2] * bv[j+2]
				e3 += xr[j+3] * bv[j+3]
			}
			for ; j < len(xr); j++ {
				e0 += xr[j] * bv[j]
			}
			eta += (e0 + e1) + (e2 + e3)
		}
		gi := -1
		if d.group != nil {
			gi = d.group[i]
			eta += uVals[gi]
		}
		var r float64
		switch fam {
		case famBernoulliLogit:
			// Branchless over y via log pmf = y*eta - log1pexp(eta) and
			// r = y - invlogit(eta); one exp + one log1p per observation
			// with z = exp(-|eta|) feeding both. The recorder path pays
			// two exps (Log1pExp + InvLogit) plus a data-dependent branch
			// on y — on logit models this halves the transcendental bill
			// and removes the unpredictable branch.
			var l, q float64
			if eta >= 0 {
				z := math.Exp(-eta)
				l = eta + math.Log1p(z) // log1pexp(eta)
				q = 1 / (1 + z)
			} else {
				z := math.Exp(eta)
				l = math.Log1p(z)
				q = z / (1 + z)
			}
			fy := yf[i]
			val += fy*eta - l
			r = fy - q
		case famPoissonLog:
			lam := math.Exp(eta)
			fy := yf[i]
			val += fy*eta - lam
			r = fy - lam
		case famNormalID:
			z := (yf[i] - eta) * sigInv
			val += -0.5 * z * z
			r = z * sigInv
			dSig += (z*z - 1) * sigInv
		}
		switch {
		case p == 1:
			dBeta[0] += r * d.x[i]
		case p == 2:
			dBeta[0] += r * d.x[2*i]
			dBeta[1] += r * d.x[2*i+1]
		case p > 0:
			xr := d.x[i*p : i*p+p]
			db := dBeta[:len(xr)]
			for j, xj := range xr {
				db[j] += r * xj
			}
		}
		if gi >= 0 {
			dU[gi] += r
		}
	}
	a[0] = val
	a[1+p+g] = dSig
}
