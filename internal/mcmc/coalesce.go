package mcmc

import (
	"math"
	"sync"
	"sync/atomic"
)

// fires is the coalescer's one scheduling rule. inSegment chains may
// still request gradients this segment; of those, waiting have a request
// pending and inflight have one inside a running batch, so the rest are
// computing — on a core, or about to be — between two requests. running
// batches occupy a core each. Pending requests go out as a batch exactly when a
// lane is free and the chains still computing plus the batches already
// running leave a core with nothing to do: a request waits for companions
// only while every core has other work.
func fires(lanes, inSegment, waiting, inflight, running int) bool {
	computing := inSegment - waiting - inflight
	return waiting > 0 && running < lanes && computing+running < lanes
}

// gradBatch is the snapshot one running batch evaluates: the rows handed
// to the fused evaluation and who they belong to. Snapshots are pooled on
// the coalescer, one per lane.
type gradBatch struct {
	qs, grads [][]float64 // nil = chain not in this batch
	member    []bool      // chains whose request this batch serves
	n         int         // rows: members
	solo      int         // the one member of a one-row batch, else -1
}

// gradCoalescer is the rendezvous of the batched gradient path. Chain
// goroutines submit gradient requests instead of evaluating their targets
// directly, and pending requests leave as fused batches under the fires
// rule, up to lanes = min(GOMAXPROCS, chains) batches at a time, each on
// the goroutine of the chain whose submit or leave made the rule true.
// Batches in flight at once carry disjoint chains: a chain has one request
// at a time and a batch takes every pending one.
//
// On one core the rule reads "everyone still in the segment is waiting":
// full sets, one data pass serving all chains — the sharing regime. With
// cores to spare it trades set size for occupancy: with as many cores as
// chains every request runs alone at once, served by the chain's own
// target exactly as on the unbatched path.
//
// Liveness, with no timer anywhere:
//   - arm() is called by the runner between segments with the segment's
//     live set, so inSegment bounds the possible submitters. Chains that
//     finish their segment (stopped at its end, at a fault or at a
//     cancel) call leave().
//   - The rule is evaluated after every submit and every leave. Those are
//     the only events that can make it true: a batch that ends frees its
//     lane but returns at least one chain to computing, so it never lowers
//     computing+running.
//   - So a request left pending saw lanes or more chains computing or
//     batches running. A running batch ends and its members compute again;
//     a computing chain ends in a submit or a leave, which re-evaluates
//     the rule with one fewer computing. By induction the last of them
//     finds the rule true: a lone straggler fires for itself, the last
//     leaver flushes whoever is parked. A chain stalled off-CPU (a slow
//     iteration) counts as computing; the others wait for it only when
//     there is no second lane, and then no longer than its stall.
//   - A panic escaping a batch wakes that batch's members with NaN
//     (quarantining them via the runner's non-finite check) and re-raises
//     on the chain that ran it if it was one of them; other lanes never
//     notice.
type gradCoalescer struct {
	eval  func(qs, grads [][]float64, lps []float64)
	inner []Target // per-chain targets serving solo batches; nil = always eval
	lanes int

	// armed gates the wrapped targets: before the first segment (chain
	// Init, step-size search, warmup of a resumed run's restore)
	// gradient calls pass straight through to the per-chain target.
	armed atomic.Bool

	mu        sync.Mutex
	inSegment int // live chains that may still submit this segment
	waiting   int // submitted requests no batch has taken yet
	inflight  int // rows inside running batches
	running   int // batches being evaluated
	qs        [][]float64
	grads     [][]float64
	lps       []float64 // per-chain results; stable until that chain's next submit
	wake      []chan struct{}
	free      []*gradBatch

	// Accounting (guarded by mu; authoritative for Result.GradBatch).
	sweeps   int64
	realRows int64
}

// newGradCoalescer builds the rendezvous for n chains and up to lanes
// concurrent batches. inner, when non-nil, holds the chains' own targets.
func newGradCoalescer(n, lanes int, eval func(qs, grads [][]float64, lps []float64), inner []Target) *gradCoalescer {
	co := &gradCoalescer{
		eval:  eval,
		inner: inner,
		lanes: lanes,
		qs:    make([][]float64, n),
		grads: make([][]float64, n),
		lps:   make([]float64, n),
		wake:  make([]chan struct{}, n),
		free:  make([]*gradBatch, lanes),
	}
	for c := range co.wake {
		co.wake[c] = make(chan struct{}, 1)
	}
	for i := range co.free {
		co.free[i] = &gradBatch{
			qs:     make([][]float64, n),
			grads:  make([][]float64, n),
			member: make([]bool, n),
		}
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
// it. One fewer chain is computing, so the rule is re-evaluated: if
// it now holds, the leaver runs the pending batch itself — nobody parked
// in it could.
func (co *gradCoalescer) leave(c int) {
	co.mu.Lock()
	co.inSegment--
	if fires(co.lanes, co.inSegment, co.waiting, co.inflight, co.running) {
		// A batch fault surfaces on its members as NaN; the leaver's own
		// step already succeeded.
		co.runBatchLocked(-1)
	}
	co.mu.Unlock()
}

// report returns the run's batching accounting.
func (co *gradCoalescer) report() *GradBatchReport {
	co.mu.Lock()
	defer co.mu.Unlock()
	return &GradBatchReport{Sweeps: co.sweeps, RealRows: co.realRows}
}

// submit hands chain c's gradient request to the rendezvous and returns
// its result: at once, leading a batch, if the request makes the rule
// true; otherwise parked until a later submit or leave takes it along.
func (co *gradCoalescer) submit(c int, q, grad []float64) float64 {
	co.mu.Lock()
	co.qs[c] = q
	co.grads[c] = grad
	co.waiting++
	if fires(co.lanes, co.inSegment, co.waiting, co.inflight, co.running) {
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

// tryEval evaluates the batch, converting a panic to a value. A batch of
// one row needs no fusing: the chain's own target computes it,
// bit-identical by the contract that batch composition never perturbs a
// result, and cheaper than a one-row sweep.
func (co *gradCoalescer) tryEval(b *gradBatch) (pv any) {
	defer func() { pv = recover() }()
	if c := b.solo; c >= 0 && co.inner != nil {
		co.lps[c] = co.inner[c].LogDensityGrad(b.qs[c], b.grads[c])
		return nil
	}
	co.eval(b.qs, b.grads, co.lps)
	return nil
}

// runBatchLocked moves every pending request into a free snapshot and
// evaluates it with the lock released, re-acquiring it before returning.
// leader >= 0 marks the calling chain's own request: it is consumed with
// the rest but the caller reads its result directly instead of being
// woken. A panic escaping the evaluation is converted to NaN results for
// the batch's members — the runner's non-finite check quarantines
// them — and returned for a leader that is one of them to re-raise.
func (co *gradCoalescer) runBatchLocked(leader int) any {
	b := co.free[len(co.free)-1]
	co.free = co.free[:len(co.free)-1]
	b.n, b.solo = 0, -1
	for c, q := range co.qs {
		b.member[c] = q != nil
		b.qs[c] = q
		b.grads[c] = co.grads[c]
		if q != nil {
			co.qs[c] = nil
			co.grads[c] = nil
			b.n++
			b.solo = c
		}
	}
	if b.n != 1 {
		b.solo = -1
	}
	co.waiting = 0
	co.inflight += b.n
	co.running++
	co.realRows += int64(b.n)
	co.mu.Unlock()

	pv := co.tryEval(b)

	co.mu.Lock()
	co.running--
	co.inflight -= b.n
	if pv == nil {
		co.sweeps++
	}
	for c, m := range b.member {
		if !m {
			continue
		}
		if pv != nil {
			co.lps[c] = math.NaN()
		}
		if c != leader {
			co.wake[c] <- struct{}{}
		}
	}
	co.free = append(co.free, b)
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
