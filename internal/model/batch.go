package model

import (
	"sync"
	"sync/atomic"

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
// block. All per-call state is pooled, so the steady-state batched
// evaluation allocates nothing.
//
// LogDensityGradBatch is safe for concurrent calls as long as no chain
// is named by two calls in flight at once — the shape the mcmc coalescer
// produces when it runs several batches side by side on different cores.
// State indexed by chain (the chain's Evaluator, its kernel parameter
// buffers and results) is touched only by the call carrying that chain;
// everything else a call needs lives in a lane it holds for its duration.
type BatchEvaluator struct {
	m     BatchableModel
	kerns []kernels.Batcher // the model's own blocks: lane 0 sweeps these, later lanes their forks
	evals []*Evaluator

	pbuf [][][]float64           // [block][chain] KernelParams destinations
	res  [][]kernels.BatchResult // [block][chain]

	mu   sync.Mutex
	idle []*batchLane

	sweeps     atomic.Int64 // fused sweeps executed
	chainEvals atomic.Int64 // chain evaluations carried by those sweeps
}

// batchLane is the state of one LogDensityGradBatch call in flight. The
// first lane sweeps the model's own kernels; each further lane, built the
// first time that many calls overlap, sweeps forks that share the kernels'
// data and own their scratch.
type batchLane struct {
	kerns  []kernels.Batcher
	params [][][]float64         // [block][chain] BatchEval input (nil = chain absent)
	dst    [][]float64           // per-block KernelParams destination views
	pre    []kernels.BatchResult // [block] one chain's results for replay
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
	b := &BatchEvaluator{m: bm, kerns: kerns}
	b.evals = make([]*Evaluator, chains)
	for c := range b.evals {
		b.evals[c] = NewEvaluator(m)
	}
	nb := len(kerns)
	b.pbuf = make([][][]float64, nb)
	b.res = make([][]kernels.BatchResult, nb)
	for bi, kn := range kerns {
		dim := kn.InputDim()
		b.pbuf[bi] = make([][]float64, chains)
		b.res[bi] = make([]kernels.BatchResult, chains)
		for c := 0; c < chains; c++ {
			b.pbuf[bi][c] = make([]float64, dim)
			b.res[bi][c].Partials = make([]float64, dim)
		}
	}
	b.idle = append(b.idle, b.newLane(kerns))
	return b, true
}

func (b *BatchEvaluator) newLane(kerns []kernels.Batcher) *batchLane {
	ln := &batchLane{
		kerns:  kerns,
		params: make([][][]float64, len(kerns)),
		dst:    make([][]float64, len(kerns)),
		pre:    make([]kernels.BatchResult, len(kerns)),
	}
	for bi := range kerns {
		ln.params[bi] = make([][]float64, len(b.evals))
	}
	return ln
}

// acquire takes an idle lane, building one over forked kernels when every
// existing lane is in use.
func (b *BatchEvaluator) acquire() *batchLane {
	b.mu.Lock()
	if n := len(b.idle); n > 0 {
		ln := b.idle[n-1]
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		return ln
	}
	b.mu.Unlock()
	kerns := make([]kernels.Batcher, len(b.kerns))
	for bi, kn := range b.kerns {
		kerns[bi] = kn.Fork()
	}
	return b.newLane(kerns)
}

func (b *BatchEvaluator) release(ln *batchLane) {
	b.mu.Lock()
	b.idle = append(b.idle, ln)
	b.mu.Unlock()
}

// Chains reports the number of per-chain evaluators.
func (b *BatchEvaluator) Chains() int { return len(b.evals) }

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
	ln := b.acquire()
	// Deferred so a panic out of the model leaves the lane reusable: the
	// coalescer recovers, quarantines the members and carries on.
	defer b.release(ln)
	count := int64(0)
	for c, q := range qs {
		if q == nil {
			for bi := range ln.kerns {
				ln.params[bi][c] = nil
			}
			continue
		}
		count++
		for bi := range ln.kerns {
			ln.params[bi][c] = b.pbuf[bi][c]
			ln.dst[bi] = b.pbuf[bi][c]
		}
		b.m.KernelParams(q, ln.dst)
	}
	if count == 0 {
		return
	}
	for bi, kn := range ln.kerns {
		kn.BatchEval(ln.params[bi], b.res[bi])
	}
	for c, q := range qs {
		if q == nil {
			continue
		}
		for bi := range ln.kerns {
			ln.pre[bi] = b.res[bi][c]
		}
		lps[c] = b.evals[c].gradCore(b.m, q, grads[c], ln.pre)
	}
	b.sweeps.Add(1)
	b.chainEvals.Add(count)
}

// Occupancy reports how many fused sweeps this evaluator has run and how
// many chain evaluations they carried. It sees only calls that reached
// it: the mcmc coalescer serves a request that is alone in its batch from
// the chain's own Evaluator, so a run's authoritative accounting is
// mcmc.Result.GradBatch. Safe to read concurrently with evaluation.
func (b *BatchEvaluator) Occupancy() (sweeps, chainEvals int64) {
	return b.sweeps.Load(), b.chainEvals.Load()
}
