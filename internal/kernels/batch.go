package kernels

import (
	"math"

	"bayessuite/internal/ad"
	"bayessuite/internal/mathx"
)

// BatchResult carries one parameter vector's result out of a fused
// multi-parameter evaluation: the log-likelihood value, the partial
// derivatives in the kernel's canonical input order, and the typed
// non-finite error the equivalent single evaluation would have panicked
// with (nil when the result is clean). Entries whose params[k] was nil
// are left untouched.
type BatchResult struct {
	Val      float64
	Partials []float64
	Err      *ad.ErrNonFinite
}

// Batcher is the batched evaluation interface implemented by every
// kernel: one cache-blocked sweep over the dataset computes K
// log-likelihood+gradient results, one per parameter vector, so K chains
// stream the modeled data through cache once instead of K times. A nil
// params[k] skips slot k (out[k] is untouched) — that is how the
// gradient coalescer shrinks a batch when chains are quarantined or
// elided. Results are bit-identical to K independent LogLik evaluations:
// each parameter vector's accumulation walks observations in the same
// order with the same per-observation operation sequence as the
// single-parameter sweep, so batch membership never perturbs a result.
//
// BatchEval reuses kernel-owned grow-only scratch and is NOT safe for
// concurrent calls on the same value.
type Batcher interface {
	// InputDim reports the length every non-nil params[k] must have: the
	// kernel's inputs flattened in canonical order (beta, then group
	// effects, then sigma where applicable).
	InputDim() int
	BatchEval(params [][]float64, out []BatchResult)
}

// glmBatch holds a GLM kernel's grow-only batch scratch plus the
// pending-sweep fields the shard sweeps read, so the steady-state sweep
// allocates nothing.
type glmBatch struct {
	act    []int     // active (non-nil) slots, in submission order
	sigInv []float64 // per active chain, 1/sigma (normal-id only)
	accBuf []float64 // raw accumulator backing, over-allocated for alignment
	acc    []float64 // aligned view: (shard, chain) rows, see batchShard
	red    []float64 // per-chain reduction scratch

	fam    glmFamily
	yf     []float64
	params [][]float64
	width  int
	ns     int
}

// InputDim implements Batcher: beta then group effects.
func (k *BernoulliLogitGLM) InputDim() int { return k.p + k.nGroups }

// BatchEval implements Batcher. params[k] = [beta..., u...].
func (k *BernoulliLogitGLM) BatchEval(params [][]float64, out []BatchResult) {
	k.batchEval(famBernoulliLogit, k.yf, 0, params, out)
}

// LogLikPre splices a precomputed batched result for this kernel into the
// tape as exactly the Custom node LogLik would have recorded, re-raising
// the non-finite panic the single evaluation would have raised.
func (k *BernoulliLogitGLM) LogLikPre(t *ad.Tape, beta, u []ad.Var, pre *BatchResult) ad.Var {
	return injectGLM(t, famBernoulliLogit, &k.glmData, beta, u, ad.Var{}, pre)
}

// InputDim implements Batcher: beta then group effects.
func (k *PoissonLogGLM) InputDim() int { return k.p + k.nGroups }

// BatchEval implements Batcher. params[k] = [beta..., u...].
func (k *PoissonLogGLM) BatchEval(params [][]float64, out []BatchResult) {
	k.batchEval(famPoissonLog, k.yf, -k.lgammaConst, params, out)
}

// LogLikPre splices a precomputed batched result into the tape; see
// BernoulliLogitGLM.LogLikPre.
func (k *PoissonLogGLM) LogLikPre(t *ad.Tape, beta, u []ad.Var, pre *BatchResult) ad.Var {
	return injectGLM(t, famPoissonLog, &k.glmData, beta, u, ad.Var{}, pre)
}

// InputDim implements Batcher: beta, group effects, then sigma.
func (k *NormalIDGLM) InputDim() int { return k.p + k.nGroups + 1 }

// BatchEval implements Batcher. params[k] = [beta..., u..., sigma].
func (k *NormalIDGLM) BatchEval(params [][]float64, out []BatchResult) {
	k.batchEval(famNormalID, k.y, 0, params, out)
}

// LogLikPre splices a precomputed batched result into the tape; see
// BernoulliLogitGLM.LogLikPre.
func (k *NormalIDGLM) LogLikPre(t *ad.Tape, beta, u []ad.Var, sigma ad.Var, pre *BatchResult) ad.Var {
	return injectGLM(t, famNormalID, &k.glmData, beta, u, sigma, pre)
}

// injectGLM is the tape-recording tail shared by the LogLikPre methods:
// it validates the precomputed result against the kernel shape and
// records the same single Custom node evalGLM would have, without
// touching the data.
func injectGLM(t *ad.Tape, fam glmFamily, d *glmData, beta, u []ad.Var, sigma ad.Var, pre *BatchResult) ad.Var {
	d.check(len(beta), len(u))
	if pre.Err != nil {
		panic(pre.Err)
	}
	nIns := d.p + d.nGroups
	if fam == famNormalID {
		nIns++
	}
	if len(pre.Partials) != nIns {
		panic("kernels: LogLikPre partials length != InputDim")
	}
	ins := t.ScratchVars(nIns)
	copy(ins, beta)
	copy(ins[d.p:], u)
	if fam == famNormalID {
		ins[d.p+d.nGroups] = sigma
	}
	return t.Custom(pre.Val, ins, pre.Partials)
}

// batchEval is the fused multi-parameter analogue of evalGLM: one
// deterministic fixed-shard sweep over the data computes every active
// chain's [val, dBeta, dU, dSigma] row, then per-chain in-order shard
// reduction reproduces evalGLM's tail exactly.
func (d *glmData) batchEval(fam glmFamily, yf []float64, valConst float64, params [][]float64, out []BatchResult) {
	if len(out) < len(params) {
		panic("kernels: BatchEval out shorter than params")
	}
	n, p, g := d.n, d.p, d.nGroups
	nIns := p + g
	if fam == famNormalID {
		nIns++
	}
	b := &d.batch
	b.act = b.act[:0]
	for k, pk := range params {
		if pk == nil {
			continue
		}
		if len(pk) != nIns {
			panic("kernels: BatchEval parameter vector length != InputDim")
		}
		b.act = append(b.act, k)
	}
	nAct := len(b.act)
	if nAct == 0 {
		return
	}
	width := padWidth(2 + p + g)
	ns := shardCount(n)
	if need := ns*nAct*width + accPad; cap(b.accBuf) < need {
		b.accBuf = make([]float64, need)
	}
	b.acc = alignRows(b.accBuf[:ns*nAct*width+accPad])[:ns*nAct*width]
	if cap(b.sigInv) < nAct {
		b.sigInv = make([]float64, nAct)
	}
	b.sigInv = b.sigInv[:nAct]
	for a, k := range b.act {
		if fam == famNormalID {
			b.sigInv[a] = 1 / params[k][p+g]
		} else {
			b.sigInv[a] = 0
		}
	}
	b.fam, b.yf, b.params, b.width, b.ns = fam, yf, params, width, ns
	for s := 0; s < ns; s++ {
		d.batchShard(s)
	}

	// Per-chain sequential in-order reduction — the same shard order and
	// add sequence as evalGLM, so every batch composition yields the
	// identical bits.
	if cap(b.red) < 2+p+g {
		b.red = make([]float64, 2+p+g)
	}
	red := b.red[:2+p+g]
	for a, k := range b.act {
		for m := range red {
			red[m] = 0
		}
		for s := 0; s < ns; s++ {
			row := b.acc[(s*nAct+a)*width : (s*nAct+a)*width+width]
			for m := range red {
				red[m] += row[m]
			}
		}
		val := red[0] + valConst
		if fam == famNormalID {
			val += float64(n) * (-math.Log(params[k][p+g]) - mathx.LnSqrt2Pi)
		}
		o := &out[k]
		o.Val = val
		o.Err = ad.CheckFinite(fam.opName(), val, red[1:1+nIns])
		if cap(o.Partials) < nIns {
			o.Partials = make([]float64, nIns)
		}
		o.Partials = o.Partials[:nIns]
		copy(o.Partials, red[1:1+nIns])
	}
	b.params = nil // do not retain caller parameter vectors between sweeps
}

// batchShard sweeps observations [lo, hi) of shard s for every active
// chain while the shard's slice of the dataset stays cache-hot. Layout:
// chain a accumulates into the row
//
//	acc[(s*nAct+a)*width : +width] = [val, dBeta[p], dU[nGroups], dSigma]
//
// rows are padWidth-padded and the block alignRows-aligned (invariant at
// padWidth). Chains take the shard one after another through glmShard,
// the single-evaluation body, so a chain's result is bit-identical to its
// single evaluation by construction, whatever the batch holds; only the
// normal-id p == 2 shape has a chain-paired body of its own.
func (d *glmData) batchShard(s int) {
	b := &d.batch
	nAct := len(b.act)
	width := b.width
	base := s * nAct * width
	zone := b.acc[base : base+nAct*width]
	for i := range zone {
		zone[i] = 0
	}
	lo, hi := shardRange(d.n, b.ns, s)
	a := 0
	if b.fam == famNormalID && d.p == 2 {
		// Hottest shape (normal-id, p == 2): two chains at a time with
		// all accumulators held in registers.
		for ; a+2 <= nAct; a += 2 {
			d.normalP2Duo(s, a, lo, hi)
		}
	}
	// Back-to-back while the shard block is cache-hot: the data is
	// streamed from the outer levels once per shard, not once per chain.
	for ; a < nAct; a++ {
		pk := b.params[b.act[a]]
		row := b.acc[(s*nAct+a)*width : (s*nAct+a+1)*width]
		glmShard(b.fam, d, b.yf, pk[:d.p], pk[d.p:d.p+d.nGroups], b.sigInv[a], row, lo, hi)
	}
}

// normalP2Duo is the two-chain register specialization of the hottest
// shape (normal-id, p == 2). Two chains is the sweet spot on x86-64:
// the ~10 live accumulators plus hoisted coefficients fit the 16 vector
// registers, while a four-chain variant spills and measures slower than
// two duo passes. Per-chain expression shapes mirror glmShard exactly
// (parenthesization included), so each chain's result is bit-identical
// to its single evaluation.
func (d *glmData) normalP2Duo(s, a0, lo, hi int) {
	b := &d.batch
	nAct := len(b.act)
	width := b.width
	g := d.nGroups
	base := (s*nAct + a0) * width
	r0 := b.acc[base : base+width]
	r1 := b.acc[base+width : base+2*width]
	k0 := b.params[b.act[a0]]
	k1 := b.params[b.act[a0+1]]
	b00, b01 := k0[0], k0[1]
	b10, b11 := k1[0], k1[1]
	u0, u1 := k0[2:2+g], k1[2:2+g]
	s0, s1 := b.sigInv[a0], b.sigInv[a0+1]
	dU0, dU1 := r0[3:3+g], r1[3:3+g]
	var v0, v1 float64
	var dA0, dA1 float64
	var dB0, dB1 float64
	var g0, g1 float64
	x := d.x
	yf := b.yf
	off := d.offset
	grp := d.group
	for i := lo; i < hi; i++ {
		x0, x1 := x[2*i], x[2*i+1]
		yi := yf[i]
		eb := 0.0
		if off != nil {
			eb = off[i]
		}
		gi := -1
		if grp != nil {
			gi = grp[i]
		}
		e0 := eb + (x0*b00 + x1*b01)
		e1 := eb + (x0*b10 + x1*b11)
		if gi >= 0 {
			e0 += u0[gi]
			e1 += u1[gi]
		}
		z0 := (yi - e0) * s0
		z1 := (yi - e1) * s1
		v0 += -0.5 * z0 * z0
		v1 += -0.5 * z1 * z1
		r0v := z0 * s0
		r1v := z1 * s1
		g0 += (z0*z0 - 1) * s0
		g1 += (z1*z1 - 1) * s1
		dA0 += r0v * x0
		dA1 += r1v * x0
		dB0 += r0v * x1
		dB1 += r1v * x1
		if gi >= 0 {
			dU0[gi] += r0v
			dU1[gi] += r1v
		}
	}
	r0[0], r0[1], r0[2], r0[3+g] = v0, dA0, dB0, g0
	r1[0], r1[1], r1[2], r1[3+g] = v1, dA1, dB1, g1
}
