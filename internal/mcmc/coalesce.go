package mcmc

import (
	"math"
	"sync"
	"sync/atomic"
)

// specRingCap bounds each chain's prefetch ring: how far a speculative
// shadow may run ahead of its committed chain, in gradient rows. The cap
// is flow control, not a hint — a full ring pauses the shadow until the
// chain consumes from the head — and bounds the memory at
// 2*dim*8 bytes per entry and the worst-case discarded work at one ring
// per chain per run.
const specRingCap = 160

// specEntry is one prefetched evaluation: the predicted position (the
// cache key, compared bit-exactly, together with the step size it was
// predicted at) and the fused-sweep result for it.
type specEntry struct {
	q, grad []float64
	lp, eps float64
}

// specRing is a chain's FIFO prefetch cache. Entries are consumed in
// order — the shadow is an exact replay, so the committed chain requests
// exactly the ring's head next, or has diverged and the whole ring is
// stale. Entry buffers are allocated lazily once and reused forever, so
// the steady-state speculation path does not allocate.
type specRing struct {
	buf  []specEntry
	head int
	n    int
}

// reserveTail returns the next tail entry with buffers sized to dim, or
// nil when the ring is full. The entry joins the FIFO only on commitTail.
func (r *specRing) reserveTail(dim int) *specEntry {
	if r.n == len(r.buf) {
		return nil
	}
	e := &r.buf[(r.head+r.n)%len(r.buf)]
	if e.q == nil {
		e.q = make([]float64, dim)
		e.grad = make([]float64, dim)
	}
	return e
}

// tail returns the reserved-but-uncommitted tail entry.
func (r *specRing) tail() *specEntry { return &r.buf[(r.head+r.n)%len(r.buf)] }

// commitTail publishes the reserved tail entry at the FIFO end.
func (r *specRing) commitTail() { r.n++ }

// pop drops the head entry (after a hit consumed it).
func (r *specRing) pop() {
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// flush empties the ring, keeping the allocated buffers for reuse.
func (r *specRing) flush() {
	r.head = 0
	r.n = 0
}

// fires is the coalescer's one scheduling rule. inRound chains may still
// request gradients this round; of those, waiting have a request pending
// and inflight have one inside a running batch, so the rest are computing
// — on a core, or about to be — between two requests. running batches
// occupy a core each. Pending requests go out as a batch exactly when a
// lane is free and the chains still computing plus the batches already
// running leave a core with nothing to do: a request waits for companions
// only while every core has other work.
func fires(lanes, inRound, waiting, inflight, running int) bool {
	computing := inRound - waiting - inflight
	return waiting > 0 && running < lanes && computing+running < lanes
}

// gradBatch is the snapshot one running batch evaluates: the rows handed
// to the fused evaluation and who they belong to. Snapshots are pooled on
// the coalescer, one per lane.
type gradBatch struct {
	qs, grads  [][]float64 // nil = chain not in this batch
	member     []bool      // real rows: demanded by a chain parked in submit
	specMember []bool      // speculative riders
	nReal      int
	nSpec      int
	solo       int // the one real member of a batch with no riders, else -1
}

// gradCoalescer is the rendezvous of the batched lockstep path. Chain
// workers submit gradient requests instead of evaluating their targets
// directly, and pending requests leave as fused batches under the fires
// rule, up to lanes = min(GOMAXPROCS, chains) batches at a time, each on
// the goroutine of the chain whose submit or leave made the rule true.
// Batches in flight at once carry disjoint chains: a chain has one request
// at a time and a batch takes every pending one.
//
// On one core the rule reads "everyone still in the round is waiting":
// full sets, one data pass serving all chains — the sharing regime. With
// cores to spare it trades set size for occupancy: with as many cores as
// chains every request runs alone at once, served by the chain's own
// target exactly as on the unbatched path.
//
// Liveness, with no timer anywhere:
//   - arm() is called by the coordinator between rounds with the round's
//     active set, so inRound bounds the possible submitters. Chains that
//     finish their step (or fault) call leave().
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
//   - A panic escaping a batch wakes that batch's real members with NaN
//     (quarantining them via the runner's non-finite check) and re-raises
//     on the chain that ran it if it was one of them; other lanes never
//     notice.
//
// Speculative prefetch (Config.Speculate): chains that left the round
// leave batch slots empty, and each carries a shadow predictor (an exact
// replay of the sampler on a forked RNG — see hmcShadow/nutsShadow). When
// a batch is about to run, empty slots are filled with the shadows' next
// predicted positions; the fused results land in per-chain FIFO rings
// keyed by (position bits, step size). A chain's next LogDensityGrad
// first probes its ring head: a bit-exact key match returns the cached
// value+gradient without a sweep; a mismatch flushes the ring silently
// and the request proceeds through the rendezvous. Speculative rows never
// trigger or delay a batch — they only ride batches that real requests
// already pay for — and the kernel batch contract (results independent of
// batch composition) makes a hit bit-identical to the evaluation it
// replaces, so draws are unchanged at any GOMAXPROCS, under faults, and
// across checkpoint/resume. A shadow and its ring tail belong to the one
// batch that filled them (specBusy) until that batch settles; the chain
// itself cannot touch either meanwhile, because it speculates only after
// leaving the round and probes only after the next arm, and a round ends
// only when every batch in it has.
type gradCoalescer struct {
	eval  func(qs, grads [][]float64, lps []float64)
	inner []Target // per-chain targets serving solo batches; nil = always eval
	lanes int

	// armed gates the wrapped targets: before the first lockstep round
	// (chain Init, step-size search, warmup of a resumed run's restore)
	// gradient calls pass straight through to the per-chain target.
	armed atomic.Bool

	mu       sync.Mutex
	inRound  int // active chains that may still submit this round
	waiting  int // submitted requests no batch has taken yet
	inflight int // real rows inside running batches
	running  int // batches being evaluated
	qs       [][]float64
	grads    [][]float64
	lps      []float64 // per-chain results; stable until that chain's next submit
	wake     []chan struct{}
	free     []*gradBatch

	// Speculation state (all guarded by mu).
	specOn   bool
	dim      int
	steppers []stepper
	eligible []bool // chain left this round with a live shadow
	specBusy []bool // chain's shadow and ring tail are claimed by a running batch
	rings    []specRing
	noteSpec func(int64) // optional kernel-layer accounting split

	// Test-only (Config.specForceMissEvery): corrupt every Nth committed
	// entry's eps key so the owner's probe must miss.
	forceMissEvery int
	specSeq        int64

	// Accounting (guarded by mu; authoritative for Result.GradBatch).
	sweeps      int64
	realRows    int64
	specRows    int64
	specHits    int64
	specMisses  int64
	specDiscard int64
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
			qs:         make([][]float64, n),
			grads:      make([][]float64, n),
			member:     make([]bool, n),
			specMember: make([]bool, n),
		}
	}
	return co
}

// enableSpeculation attaches the chain steppers' shadow predictors and
// allocates the prefetch rings. Called once before the first round.
func (co *gradCoalescer) enableSpeculation(steppers []stepper, dim int, note func(int64)) {
	n := len(co.qs)
	co.specOn = true
	co.dim = dim
	co.steppers = steppers
	co.eligible = make([]bool, n)
	co.specBusy = make([]bool, n)
	co.rings = make([]specRing, n)
	for c := range co.rings {
		co.rings[c].buf = make([]specEntry, specRingCap)
	}
	co.noteSpec = note
}

// arm opens a coalescing round over the chains marked active. Called by
// the coordinator between rounds, when no worker is in flight.
func (co *gradCoalescer) arm(active []bool) {
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	co.mu.Lock()
	co.inRound = n
	if co.specOn {
		// Chains re-entering the round stop speculating until they leave
		// again; their rings stay valid (the prefetched entries are the
		// predictions they are about to consume).
		for c := range co.eligible {
			co.eligible[c] = false
		}
	}
	co.mu.Unlock()
	co.armed.Store(true)
}

// leave removes chain c from the round once its step completes or
// faults. One fewer chain is computing, so the rule is re-evaluated: if
// it now holds, the leaver runs the pending batch itself — nobody parked
// in it could. spec marks the chain healthy and willing to speculate: its
// shadow is (re)forked from the just-committed state, unless unconsumed
// prefetched entries prove the existing shadow is still on track.
func (co *gradCoalescer) leave(c int, spec bool) {
	co.mu.Lock()
	if co.specOn && spec {
		if co.rings[c].n > 0 {
			// The chain consumed its ring in order and entries remain:
			// the shadow is paused mid-replay of a future iteration, and
			// reforking would discard already-evaluated prefetches.
			co.eligible[c] = true
		} else {
			co.eligible[c] = co.steppers[c].specReset()
		}
	}
	co.inRound--
	if fires(co.lanes, co.inRound, co.waiting, co.inflight, co.running) {
		// A batch fault surfaces on its members as NaN; the leaver's own
		// step already succeeded.
		co.runBatchLocked(-1)
	}
	co.mu.Unlock()
}

// probe serves chain c's gradient request from its prefetch ring when
// the ring head matches (position bits, step size) exactly. On a
// mismatch the whole ring is stale — the shadow replays the committed
// chain's exact future, so consumption is strictly in order — and is
// discarded silently.
func (co *gradCoalescer) probe(c int, q, grad []float64) (float64, bool) {
	co.mu.Lock()
	rg := &co.rings[c]
	if rg.n == 0 {
		co.mu.Unlock()
		return 0, false
	}
	e := &rg.buf[rg.head]
	if math.Float64bits(e.eps) == math.Float64bits(co.steppers[c].StepSize()) && qBitsEqual(e.q, q) {
		lp := e.lp
		copy(grad, e.grad)
		rg.pop()
		co.specHits++
		co.mu.Unlock()
		return lp, true
	}
	co.specMisses++
	co.specDiscard += int64(rg.n)
	rg.flush()
	co.mu.Unlock()
	return 0, false
}

// qBitsEqual compares two positions bit for bit (NaN payloads included):
// the cache key contract is exact-replay identity, not numeric equality.
func qBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// report drains the rings (leftover prefetches were never consumed) and
// returns the run's batching accounting.
func (co *gradCoalescer) report() *GradBatchReport {
	co.mu.Lock()
	defer co.mu.Unlock()
	for c := range co.rings {
		co.specDiscard += int64(co.rings[c].n)
		co.rings[c].flush()
	}
	return &GradBatchReport{
		Sweeps:        co.sweeps,
		RealRows:      co.realRows,
		SpecRows:      co.specRows,
		SpecCommitted: co.specHits,
		SpecDiscarded: co.specDiscard,
	}
}

// submit hands chain c's gradient request to the rendezvous and returns
// its result: at once, leading a batch, if the request makes the rule
// true; otherwise parked until a later submit or leave takes it along.
func (co *gradCoalescer) submit(c int, q, grad []float64) float64 {
	co.mu.Lock()
	co.qs[c] = q
	co.grads[c] = grad
	co.waiting++
	if fires(co.lanes, co.inRound, co.waiting, co.inflight, co.running) {
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

// fillSpecLocked fills the assembling batch's empty slots with eligible
// idle chains' next predicted positions, claiming each such chain's
// shadow for this batch. Each prediction reserves its chain's ring tail
// entry — the fused sweep writes the gradient straight into the cache
// buffer — and a full ring simply pauses that shadow.
func (co *gradCoalescer) fillSpecLocked(b *gradBatch) {
	if !co.specOn {
		return
	}
	for c := range b.specMember {
		if !co.eligible[c] || co.specBusy[c] {
			continue
		}
		e := co.rings[c].reserveTail(co.dim)
		if e == nil {
			continue
		}
		if !co.steppers[c].speculate(e.q) {
			continue
		}
		e.eps = co.steppers[c].specStepSize()
		co.specBusy[c] = true
		b.specMember[c] = true
		b.qs[c] = e.q
		b.grads[c] = e.grad
		b.nSpec++
	}
}

// settleSpecLocked finishes the batch's speculative rows and releases
// their shadows: on a clean sweep each entry is completed, published at
// its ring's FIFO end, and fed back to the shadow so it can predict the
// next step; on a dropped batch (fault retry) the reservations are
// released and the shadows killed until their next fork.
func (co *gradCoalescer) settleSpecLocked(b *gradBatch, dropped bool) {
	if b.nSpec == 0 {
		return
	}
	for c, sm := range b.specMember {
		if !sm {
			continue
		}
		b.specMember[c] = false
		co.specBusy[c] = false
		if dropped {
			co.steppers[c].specAbort()
			continue
		}
		e := co.rings[c].tail()
		e.lp = co.lps[c]
		co.rings[c].commitTail()
		co.steppers[c].specFeed(e.lp, e.grad)
		if co.forceMissEvery > 0 {
			co.specSeq++
			if co.specSeq%int64(co.forceMissEvery) == 0 {
				// Test-only key corruption, applied after the shadow was
				// fed the genuine result: the entry itself stays valid, but
				// the probe's bit-exact key comparison must now fail.
				e.eps = math.Float64frombits(math.Float64bits(e.eps) ^ 1)
			}
		}
	}
	if !dropped {
		co.specRows += int64(b.nSpec)
		if co.noteSpec != nil {
			co.noteSpec(int64(b.nSpec))
		}
	}
}

// tryEval evaluates the batch, converting a panic to a value. A batch of
// one real row and no riders needs no fusing: the chain's own target
// computes it, bit-identical by the contract that batch composition never
// perturbs a result, and cheaper than a one-row sweep.
func (co *gradCoalescer) tryEval(b *gradBatch) (pv any) {
	defer func() { pv = recover() }()
	if c := b.solo; c >= 0 && co.inner != nil {
		co.lps[c] = co.inner[c].LogDensityGrad(b.qs[c], b.grads[c])
		return nil
	}
	co.eval(b.qs, b.grads, co.lps)
	return nil
}

// runEval executes the batch. A panic with speculative rows aboard gets
// one retry without them: a fault inside a speculative evaluation must
// quarantine nobody and poison nothing, so this batch's speculation is
// simply dropped and only a repeat failure is attributed to its real
// members.
func (co *gradCoalescer) runEval(b *gradBatch) (pv any, droppedSpec bool) {
	pv = co.tryEval(b)
	if pv == nil || b.nSpec == 0 {
		return pv, false
	}
	for c, sm := range b.specMember {
		if sm {
			b.qs[c] = nil
			b.grads[c] = nil
		}
	}
	return co.tryEval(b), true
}

// runBatchLocked moves every pending request into a free snapshot and
// evaluates it with the lock released, re-acquiring it before returning.
// leader >= 0 marks the calling chain's own request: it is consumed with
// the rest but the caller reads its result directly instead of being
// woken. A panic escaping the evaluation is converted to NaN results for
// the batch's real members — the runner's non-finite check quarantines
// them — and returned for a leader that is one of them to re-raise.
func (co *gradCoalescer) runBatchLocked(leader int) any {
	b := co.free[len(co.free)-1]
	co.free = co.free[:len(co.free)-1]
	b.nReal, b.nSpec, b.solo = 0, 0, -1
	for c, q := range co.qs {
		b.member[c] = q != nil
		b.qs[c] = q
		b.grads[c] = co.grads[c]
		if q != nil {
			co.qs[c] = nil
			co.grads[c] = nil
			b.nReal++
			b.solo = c
		}
	}
	co.fillSpecLocked(b)
	if b.nReal != 1 || b.nSpec != 0 {
		b.solo = -1
	}
	co.waiting = 0
	co.inflight += b.nReal
	co.running++
	co.realRows += int64(b.nReal)
	co.mu.Unlock()

	pv, droppedSpec := co.runEval(b)

	co.mu.Lock()
	co.running--
	co.inflight -= b.nReal
	co.settleSpecLocked(b, droppedSpec || pv != nil)
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
// through the round rendezvous once armed. Value-only evaluation and
// everything before the first lockstep round (Init, step-size search,
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
	if t.co.specOn {
		if lp, ok := t.co.probe(t.c, q, grad); ok {
			return lp
		}
	}
	return t.co.submit(t.c, q, grad)
}
