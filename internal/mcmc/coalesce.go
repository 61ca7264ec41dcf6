package mcmc

import (
	"math"
	"sync"
	"sync/atomic"
)

// fires is the coalescer's one scheduling rule: pending requests go out
// as a batch exactly when every chain still in the segment (inSegment of
// them) has one waiting.
func fires(inSegment, waiting int) bool {
	return waiting > 0 && waiting == inSegment
}

// gradCoalescer is the rendezvous of the batched gradient path, which the
// runner builds only on one core (see RunContext). Chain goroutines submit
// gradient requests instead of evaluating their targets directly, and a
// request parks until every chain still in the segment has submitted one;
// the chain whose submit or leave completes the set evaluates them all as
// one fused batch on its own goroutine. One data pass per leapfrog step
// then serves every chain — the sharing regime.
//
// Liveness, with no timer anywhere:
//   - arm() is called by the runner between segments with the segment's
//     live set, so inSegment bounds the possible submitters. Chains that
//     finish their segment (stopped at its end, at a fault or at a
//     cancel) call leave().
//   - The rule is evaluated after every submit and every leave. While a
//     batch runs, every chain still in the segment is parked in it, so
//     nothing can submit or leave: one batch at a time, reading the
//     pending requests in place.
//   - So a request left pending saw a chain computing, and that chain
//     ends in a submit or a leave, which re-evaluates the rule. The last
//     of them finds it true: a lone straggler fires for itself, the last
//     leaver flushes whoever is parked. A chain stalled off-CPU (a slow
//     iteration) keeps the others waiting exactly as long as it stalls.
//   - A panic escaping a batch wakes its members with NaN (quarantining
//     them via the runner's non-finite check) and re-raises on the chain
//     that ran it if it was one of them.
type gradCoalescer struct {
	eval  func(qs, grads [][]float64, lps []float64)
	inner []Target // per-chain targets serving one-row batches; nil = always eval

	// armed gates the wrapped targets: before the first segment (chain
	// Init, step-size search, warmup of a resumed run's restore)
	// gradient calls pass straight through to the per-chain target.
	armed atomic.Bool

	mu        sync.Mutex
	inSegment int // live chains that may still submit this segment
	waiting   int // submitted requests no batch has taken yet
	qs        [][]float64
	grads     [][]float64
	lps       []float64 // per-chain results; stable until that chain's next submit
	wake      []chan struct{}
}

// newGradCoalescer builds the rendezvous for n chains. inner, when
// non-nil, holds the chains' own targets.
func newGradCoalescer(n int, eval func(qs, grads [][]float64, lps []float64), inner []Target) *gradCoalescer {
	co := &gradCoalescer{
		eval:  eval,
		inner: inner,
		qs:    make([][]float64, n),
		grads: make([][]float64, n),
		lps:   make([]float64, n),
		wake:  make([]chan struct{}, n),
	}
	for c := range co.wake {
		co.wake[c] = make(chan struct{}, 1)
	}
	return co
}

// arm opens a coalescing segment over the chains marked active. Called by
// the runner between segments, when no chain is in flight.
func (co *gradCoalescer) arm(active []bool) {
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	co.mu.Lock()
	co.inSegment = n
	co.mu.Unlock()
	co.armed.Store(true)
}

// leave removes chain c from the segment once it has stopped stepping in
// it. If everyone left is parked, the leaver runs their batch itself —
// nobody parked in it could.
func (co *gradCoalescer) leave(c int) {
	co.mu.Lock()
	co.inSegment--
	if fires(co.inSegment, co.waiting) {
		// A batch fault surfaces on its members as NaN; the leaver's own
		// step already succeeded.
		co.runBatchLocked(-1)
	}
	co.mu.Unlock()
}

// submit hands chain c's gradient request to the rendezvous and returns
// its result: at once, leading a batch, if the request completes the set;
// otherwise parked until a later submit or leave takes it along.
func (co *gradCoalescer) submit(c int, q, grad []float64) float64 {
	co.mu.Lock()
	co.qs[c] = q
	co.grads[c] = grad
	co.waiting++
	if fires(co.inSegment, co.waiting) {
		pv := co.runBatchLocked(c)
		lp := co.lps[c]
		co.mu.Unlock()
		if pv != nil {
			panic(pv)
		}
		return lp
	}
	co.mu.Unlock()
	<-co.wake[c]
	return co.lps[c]
}

// tryEval evaluates the pending requests, converting a panic to a value.
// A batch of one row needs no fusing: the chain's own target computes it,
// bit-identical by the contract that batch composition never perturbs a
// result, and cheaper than a one-row sweep.
func (co *gradCoalescer) tryEval(solo bool) (pv any) {
	defer func() { pv = recover() }()
	if solo && co.inner != nil {
		for c, q := range co.qs {
			if q != nil {
				co.lps[c] = co.inner[c].LogDensityGrad(q, co.grads[c])
			}
		}
		return nil
	}
	co.eval(co.qs, co.grads, co.lps)
	return nil
}

// runBatchLocked evaluates every pending request as one batch, with the
// lock released, and wakes its members. Every chain still in the segment
// is parked in the batch, so nothing touches the requests meanwhile.
// leader >= 0 marks the calling chain's own request: it is served with
// the rest but the caller reads its result directly instead of being
// woken. A panic escaping the evaluation is converted to NaN results for
// the batch's members — the runner's non-finite check quarantines them —
// and returned for a leader that is one of them to re-raise.
func (co *gradCoalescer) runBatchLocked(leader int) any {
	n := co.waiting
	co.mu.Unlock()
	pv := co.tryEval(n == 1)
	co.mu.Lock()
	for c, q := range co.qs {
		if q == nil {
			continue
		}
		co.qs[c], co.grads[c] = nil, nil
		if pv != nil {
			co.lps[c] = math.NaN()
		}
		if c != leader {
			co.wake[c] <- struct{}{}
		}
	}
	co.waiting = 0
	return pv
}

// coalescedTarget wraps one chain's target, routing gradient requests
// through the segment rendezvous once armed. Value-only evaluation and
// everything before the first segment (Init, step-size search,
// initPoint probing) pass through to the inner target unchanged.
type coalescedTarget struct {
	inner Target
	co    *gradCoalescer
	c     int
}

func (t *coalescedTarget) Dim() int { return t.inner.Dim() }

func (t *coalescedTarget) LogDensity(q []float64) float64 {
	return t.inner.LogDensity(q)
}

func (t *coalescedTarget) LogDensityGrad(q, grad []float64) float64 {
	if !t.co.armed.Load() {
		return t.inner.LogDensityGrad(q, grad)
	}
	return t.co.submit(t.c, q, grad)
}
