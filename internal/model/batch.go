package model

import (
	"bayessuite/internal/ad"
	"bayessuite/internal/kernels"
)

// BatchableModel is implemented by models whose likelihood blocks can be
// evaluated for many parameter vectors in one fused data sweep. The
// contract ties three methods together:
//
//   - BatchKernels lists the kernel blocks, in a fixed order.
//   - KernelParams extracts, for an unconstrained point q, each block's
//     flat input vector into dst (dst[b] has BatchKernels()[b].InputDim()
//     elements). The floats written MUST be bit-identical to the values
//     the block's inputs take when LogPosterior records q on a tape —
//     apply the exact same constraining transforms — or batched draws
//     drift from unbatched ones.
//   - LogPosteriorPre records the same density LogPosterior records, but
//     splices pre[b] (the BatchResult of block b at this q) via the
//     kernels' LogLikPre forms instead of re-sweeping the data.
//
// Everything outside the kernel blocks (priors, Jacobians) is still
// recorded per chain; only the O(data) sweeps are shared.
type BatchableModel interface {
	Model
	BatchKernels() []kernels.Batcher
	KernelParams(q []float64, dst [][]float64)
	LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var
}

// BatchEvaluator owns one Evaluator per chain plus the buffers of the
// fused gradient path: LogDensityGradBatch computes every requested
// chain's log density and gradient with one BatchEval sweep per kernel
// block. Its buffers are built once, so the steady-state batched
// evaluation allocates nothing. Calls must not overlap — the mcmc
// coalescer runs one batch at a time.
type BatchEvaluator struct {
	m     BatchableModel
	kerns []kernels.Batcher
	evals []*Evaluator

	pbuf   [][][]float64           // [block][chain] KernelParams destinations
	params [][][]float64           // [block][chain] BatchEval input (nil = chain absent)
	res    [][]kernels.BatchResult // [block][chain]
	dst    [][]float64             // per-block KernelParams destination views
	pre    []kernels.BatchResult   // [block] one chain's results for replay
}

// NewBatchEvaluator returns a fused evaluator for chains chains of m, or
// (nil, false) when m does not expose batched kernels.
func NewBatchEvaluator(m Model, chains int) (*BatchEvaluator, bool) {
	bm, ok := m.(BatchableModel)
	if !ok {
		return nil, false
	}
	kerns := bm.BatchKernels()
	if len(kerns) == 0 {
		return nil, false
	}
	nb := len(kerns)
	b := &BatchEvaluator{
		m: bm, kerns: kerns,
		evals:  make([]*Evaluator, chains),
		pbuf:   make([][][]float64, nb),
		params: make([][][]float64, nb),
		res:    make([][]kernels.BatchResult, nb),
		dst:    make([][]float64, nb),
		pre:    make([]kernels.BatchResult, nb),
	}
	for c := range b.evals {
		b.evals[c] = NewEvaluator(m)
	}
	for bi, kn := range kerns {
		dim := kn.InputDim()
		b.pbuf[bi] = make([][]float64, chains)
		b.params[bi] = make([][]float64, chains)
		b.res[bi] = make([]kernels.BatchResult, chains)
		for c := 0; c < chains; c++ {
			b.pbuf[bi][c] = make([]float64, dim)
			b.res[bi][c].Partials = make([]float64, dim)
		}
	}
	return b, true
}

// Chain returns chain c's Evaluator — a full standalone Evaluator (used
// as the per-chain sampling target), with its own tape, work counters,
// and LastNonFinite diagnostics.
func (b *BatchEvaluator) Chain(c int) *Evaluator { return b.evals[c] }

// LogDensityGradBatch evaluates every chain with qs[c] != nil in one
// fused data sweep per kernel block, writing grads[c] and lps[c]. A
// chain whose kernels report non-finite results gets lp=-Inf and a zero
// gradient — exactly what its own LogDensityGrad would have produced —
// without disturbing the other chains in the batch. Results are
// bit-identical to per-chain LogDensityGrad calls for any batch
// composition, and entries of absent chains are not touched.
func (b *BatchEvaluator) LogDensityGradBatch(qs, grads [][]float64, lps []float64) {
	count := 0
	for c, q := range qs {
		if q == nil {
			for bi := range b.kerns {
				b.params[bi][c] = nil
			}
			continue
		}
		count++
		for bi := range b.kerns {
			b.params[bi][c] = b.pbuf[bi][c]
			b.dst[bi] = b.pbuf[bi][c]
		}
		b.m.KernelParams(q, b.dst)
	}
	if count == 0 {
		return
	}
	for bi, kn := range b.kerns {
		kn.BatchEval(b.params[bi], b.res[bi])
	}
	for c, q := range qs {
		if q == nil {
			continue
		}
		for bi := range b.kerns {
			b.pre[bi] = b.res[bi][c]
		}
		lps[c] = b.evals[c].gradCore(b.m, q, grads[c], b.pre)
	}
}
