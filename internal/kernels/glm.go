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
		val += float64(float64(n) * (-math.Log(sigV) - mathx.LnSqrt2Pi))
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

// linkBlock is how many observations glmShard carries between its passes:
// three float64 arrays of this length (3 KB) stay on the stack and in L1.
const linkBlock = 128

// glmShard sweeps observations [lo, hi) of shard s and writes its partial
// sums into the shard's disjoint accumulator slot
// acc[s*width : (s+1)*width] = [val, dBeta[p], dU[nGroups], dSigma].
//
// It takes the range in blocks of linkBlock observations and makes three
// passes over each: the linear predictor eta (etaBlock), the link on the
// whole block (mathx.LogisticBlock or mathx.ExpBlock, vector code where
// the CPU has it; normal-id has none) leaving the residual
// r = d loglik / d eta, and the gradient accumulation (scatterBlock).
// Observations enter every sum in index order.
func glmShard(fam glmFamily, d *glmData, yf []float64, betaVals, uVals []float64, sigInv float64, a []float64, lo, hi int) {
	p, g := d.p, d.nGroups
	for i := range a {
		a[i] = 0
	}
	var val, dSig float64
	var etaBuf, linkBuf, resBuf [linkBlock]float64
	for ; lo < hi; lo += linkBlock {
		n := hi - lo
		if n > linkBlock {
			n = linkBlock
		}
		eta, l, r := etaBuf[:n], linkBuf[:n], resBuf[:n]
		y := yf[lo : lo+n]
		d.etaBlock(eta, lo, betaVals, uVals)
		switch fam {
		case famBernoulliLogit:
			// Branchless over y: log pmf = y*eta - log1pexp(eta) and
			// r = y - invlogit(eta), both from the one z = exp(-|eta|)
			// the block link computes per observation.
			mathx.LogisticBlock(eta, l, r)
			for j, fy := range y {
				val += float64(fy*eta[j]) - l[j]
				r[j] = fy - r[j]
			}
		case famPoissonLog:
			mathx.ExpBlock(l, eta)
			for j, fy := range y {
				val += float64(fy*eta[j]) - l[j]
				r[j] = fy - l[j]
			}
		case famNormalID:
			for j, fy := range y {
				z := (fy - eta[j]) * sigInv
				val += float64(-0.5 * z * z)
				r[j] = z * sigInv
				dSig += float64((float64(z*z) - 1) * sigInv)
			}
		}
		d.scatterBlock(r, lo, a[1:1+p], a[1+p:1+p+g])
	}
	a[0] = val
	a[1+p+g] = dSig
}

// etaBlock sets eta[j] to the linear predictor of observation lo+j:
// offset, plus the design row's dot product, plus the group effect, added
// in that order. Rows of three or more columns take mathx.DotRows, vector
// code where the CPU has it.
func (d *glmData) etaBlock(eta []float64, lo int, beta, u []float64) {
	if d.offset != nil {
		copy(eta, d.offset[lo:])
	} else {
		for j := range eta {
			eta[j] = 0
		}
	}
	group := d.group
	if group != nil {
		group = group[lo : lo+len(eta)]
	}
	switch p := d.p; {
	case p == 1:
		x, b0 := d.x[lo:lo+len(eta)], beta[0]
		for j := range eta {
			eta[j] += float64(x[j] * b0)
		}
	case p == 2:
		x, b0, b1 := d.x[2*lo:2*(lo+len(eta))], beta[0], beta[1]
		for j := range eta {
			eta[j] += float64(x[2*j]*b0) + float64(x[2*j+1]*b1)
		}
	case p > 0:
		mathx.DotRows(eta, d.x[lo*p:(lo+len(eta))*p], beta[:p], group, u)
		return
	}
	for j, gi := range group {
		eta[j] += u[gi]
	}
}

// scatterBlock adds the residuals r[j] = d loglik / d eta of observations
// lo+j into the coefficient and group-effect partials. Narrow rows
// accumulate in registers, wider ones take mathx.AxpyRows; each partial
// still receives its terms in observation order.
func (d *glmData) scatterBlock(r []float64, lo int, dBeta, dU []float64) {
	group := d.group
	if group != nil {
		group = group[lo : lo+len(r)]
	}
	switch p := d.p; {
	case p == 1:
		x, d0 := d.x[lo:lo+len(r)], dBeta[0]
		for j, rj := range r {
			d0 += float64(rj * x[j])
		}
		dBeta[0] = d0
	case p == 2:
		x, d0, d1 := d.x[2*lo:2*(lo+len(r))], dBeta[0], dBeta[1]
		for j, rj := range r {
			d0 += float64(rj * x[2*j])
			d1 += float64(rj * x[2*j+1])
		}
		dBeta[0], dBeta[1] = d0, d1
	case p > 0:
		mathx.AxpyRows(dBeta[:p], d.x[lo*p:(lo+len(r))*p], r, group, dU)
		return
	}
	for j, gi := range group {
		dU[gi] += r[j]
	}
}
