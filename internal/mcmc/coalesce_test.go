package mcmc

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bayessuite/internal/ad"
	"bayessuite/internal/kernels"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// batchedGLMModel is an inline BatchableModel for the coalescer tests: a
// normal-identity GLM with group effects and a positive noise scale.
// (The real converted workloads live in internal/workloads, which this
// package cannot import.)
type batchedGLMModel struct {
	norm *kernels.NormalIDGLM
	p, g int
}

func newBatchedGLMModel(n, p, g int, seed uint64) *batchedGLMModel {
	r := rng.New(seed)
	x := make([]float64, n*p)
	for i := range x {
		x[i] = r.Norm()
	}
	group := make([]int, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		group[i] = i % g
		e := 0.3 * float64(group[i]%3)
		for j := 0; j < p; j++ {
			e += (0.5 - 0.2*float64(j)) * x[i*p+j]
		}
		y[i] = e + 0.4*r.Norm()
	}
	return &batchedGLMModel{
		norm: kernels.NewNormalIDGLM(y, x, p, nil, group, g),
		p:    p, g: g,
	}
}

func (m *batchedGLMModel) Name() string { return "batched-glm-test" }

func (m *batchedGLMModel) Dim() int { return m.p + m.g + 1 }

func (m *batchedGLMModel) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	return m.logPost(t, q, nil)
}

func (m *batchedGLMModel) logPost(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	b := model.NewBuilder(t)
	sigma := b.Positive(q[m.p+m.g])
	b.Add(kernels.NormalDeviations(t, q, ad.Const(0), ad.Const(1)))
	beta := q[:m.p]
	u := q[m.p : m.p+m.g]
	if pre != nil {
		b.Add(m.norm.LogLikPre(t, beta, u, sigma, &pre[0]))
	} else {
		b.Add(m.norm.LogLik(t, beta, u, sigma))
	}
	return b.Result()
}

func (m *batchedGLMModel) BatchKernels() []kernels.Batcher {
	return []kernels.Batcher{m.norm}
}

func (m *batchedGLMModel) KernelParams(q []float64, dst [][]float64) {
	d := dst[0]
	copy(d[:m.p+m.g], q)
	d[m.p+m.g] = math.Exp(q[m.p+m.g]) + 0
}

func (m *batchedGLMModel) LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	return m.logPost(t, q, pre)
}

// runBatched runs cfg over a fresh BatchEvaluator for m, wired to the
// fused gradient path.
func runBatched(t *testing.T, m *batchedGLMModel, cfg Config) (*Result, *model.BatchEvaluator) {
	t.Helper()
	be, ok := model.NewBatchEvaluator(m, cfg.Chains)
	if !ok {
		t.Fatal("model is not batchable")
	}
	next := 0
	cfg.BatchGrad = be.LogDensityGradBatch
	res := Run(cfg, func() Target {
		c := next
		next++
		return be.Chain(c)
	})
	return res, be
}

// withProcs runs f at GOMAXPROCS n — the only parallelism input the
// batched path has — and restores the previous setting.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestCoalescedLockstepDeterminism is the end-to-end draw-preservation
// guarantee of the batched gradient path: a parallel run with a StopRule
// and the coalescer active must produce draws bit-identical to the same run
// evaluating each chain independently — for both samplers, at every
// GOMAXPROCS (one lane of full sets, two lanes, a lane per chain), on a
// fresh run, across a checkpoint/resume, and with a chain quarantined.
// How requests group into sweeps is scheduling; the rows are not: every
// gradient a chain demanded within a segment is evaluated exactly once.
func TestCoalescedLockstepDeterminism(t *testing.T) {
	m := newBatchedGLMModel(1200, 2, 6, 97)
	for _, kind := range []SamplerKind{HMC, NUTS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := Config{
				Chains: 4, Iterations: 80, Sampler: kind, Seed: 31, IntTime: 0.3,
				StopRule: neverFire{}, Parallel: true,
			}
			hook := func(chain, iter int) FaultAction {
				if chain == 2 && iter == 50 {
					return FaultActNonFinite
				}
				return FaultActNone
			}
			plain := Run(base, func() Target { return model.NewEvaluator(m) })
			qCfg := base
			qCfg.FaultHook = hook
			qPlain := Run(qCfg, func() Target { return model.NewEvaluator(m) })
			if qPlain.Chains[2].Fault == nil {
				t.Fatal("chain 2 was not quarantined on the unbatched path")
			}

			for _, procs := range []int{1, 2, 8} {
				withProcs(procs, func() {
					label := fmt.Sprintf("%s procs=%d", kind, procs)
					batched, _ := runBatched(t, m, base)
					sameDraws(t, label+" batched-vs-per-chain", plain, batched)

					gb := batched.GradBatch
					if gb == nil || gb.Sweeps == 0 {
						t.Fatalf("%s: coalescer never executed a batch", label)
					}
					if demand := batched.TotalWork(); gb.RealRows != demand {
						t.Errorf("%s: %d rows evaluated for a demand of %d gradients",
							label, gb.RealRows, demand)
					}
					if procs == 1 {
						// One lane waits for full sets: every sweep carries
						// every chain still in the segment, so a segment costs
						// as many sweeps as its busiest chain has leapfrogs.
						fullSets := int64(0)
						seg := batched.Config.CheckInterval
						for from := 0; from < batched.Iterations; from += seg {
							busiest := int64(0)
							for _, ch := range batched.Chains {
								w := int64(0)
								for _, wi := range ch.Work[from:min(from+seg, batched.Iterations)] {
									w += wi
								}
								busiest = max(busiest, w)
							}
							fullSets += busiest
						}
						if gb.Sweeps != fullSets {
							t.Errorf("%s: %d sweeps, want %d — one per leapfrog of each segment's busiest chain",
								label, gb.Sweeps, fullSets)
						}
					}

					var cks []*Checkpoint
					ckCfg := base
					ckCfg.CheckpointEvery = 30
					ckCfg.CheckpointSink = collectSink(&cks)
					runBatched(t, m, ckCfg)
					if len(cks) == 0 {
						t.Fatalf("%s: no checkpoints captured", label)
					}
					resCfg := base
					resCfg.ResumeFrom = cks[0]
					resumed, _ := runBatched(t, m, resCfg)
					sameDraws(t, label+" checkpoint-resume batched vs fresh plain", plain, resumed)

					qBatched, _ := runBatched(t, m, qCfg)
					sameDraws(t, label+" quarantine batched vs plain", qPlain, qBatched)
					if qBatched.Chains[2].Fault == nil {
						t.Errorf("%s: chain 2 was not quarantined on the batched path", label)
					}
				})
			}

			// A sequential run ignores BatchGrad entirely and must
			// still agree (the coalescer only engages on the parallel path).
			seqCfg := base
			seqCfg.Parallel = false
			seq, be := runBatched(t, m, seqCfg)
			sameDraws(t, kind.String()+" sequential ignores BatchGrad", plain, seq)
			if s, _ := be.Occupancy(); s != 0 || seq.GradBatch != nil {
				t.Errorf("sequential run executed %d fused sweeps, want 0 and no report", s)
			}
		})
	}
}

// TestCoalescerFireRule is the truth table of the scheduling rule, then
// its two structural consequences checked over every reachable small
// state: one lane fires exactly on full sets, and a batch that ends never
// makes the rule true — which is why only submit and leave evaluate it.
func TestCoalescerFireRule(t *testing.T) {
	for _, tc := range []struct {
		name                                       string
		lanes, inRound, waiting, inflight, running int
		want                                       bool
	}{
		{"nothing pending", 2, 4, 0, 0, 0, false},
		{"one lane, partial set", 1, 4, 3, 0, 0, false},
		{"one lane, full set", 1, 4, 4, 0, 0, true},
		{"one lane, full set of the survivors", 1, 2, 2, 0, 0, true},
		{"one lane, busy", 1, 4, 1, 3, 1, false},
		{"two lanes, both cores computing", 2, 4, 2, 0, 0, false},
		{"two lanes, one core would idle", 2, 4, 3, 0, 0, true},
		{"two lanes, a batch and a computing chain", 2, 4, 1, 2, 1, false},
		{"two lanes, straggler beside a batch", 2, 4, 1, 3, 1, true},
		{"two lanes, both running", 2, 4, 1, 2, 2, false},
		{"lane per chain, alone at once", 4, 4, 1, 0, 0, true},
		{"lane per chain, beside three solos", 4, 4, 1, 3, 3, true},
		{"lone survivor", 2, 1, 1, 0, 0, true},
	} {
		if got := fires(tc.lanes, tc.inRound, tc.waiting, tc.inflight, tc.running); got != tc.want {
			t.Errorf("%s: fires(lanes=%d inRound=%d waiting=%d inflight=%d running=%d) = %v, want %v",
				tc.name, tc.lanes, tc.inRound, tc.waiting, tc.inflight, tc.running, got, tc.want)
		}
	}
	const n = 6
	for lanes := 1; lanes <= n; lanes++ {
		for inRound := 0; inRound <= n; inRound++ {
			for waiting := 0; waiting <= inRound; waiting++ {
				for inflight := 0; waiting+inflight <= inRound; inflight++ {
					// Every running batch carries at least one real row, and
					// rows are in flight only inside a running batch.
					for running := min(inflight, 1); running <= inflight && running <= lanes; running++ {
						got := fires(lanes, inRound, waiting, inflight, running)
						if lanes == 1 {
							if full := waiting > 0 && waiting == inRound; got != full {
								t.Fatalf("one lane, inRound=%d waiting=%d inflight=%d running=%d: fires=%v, full set=%v",
									inRound, waiting, inflight, running, got, full)
							}
						}
						if got || running == 0 {
							continue
						}
						for rows := 1; rows <= inflight-(running-1); rows++ {
							if fires(lanes, inRound, waiting, inflight-rows, running-1) {
								t.Fatalf("a batch of %d ending turned the rule true: lanes=%d inRound=%d waiting=%d inflight=%d running=%d",
									rows, lanes, inRound, waiting, inflight, running)
							}
						}
					}
				}
			}
		}
	}
}

// countingEval builds a coalescer eval that records the member count of
// every fused batch and writes recognizable results.
func countingEval(sizes *[]int, mu *sync.Mutex) func(qs, grads [][]float64, lps []float64) {
	return func(qs, grads [][]float64, lps []float64) {
		n := 0
		for c, q := range qs {
			if q == nil {
				continue
			}
			n++
			lps[c] = 100 + float64(c)
			grads[c][0] = float64(c)
		}
		mu.Lock()
		*sizes = append(*sizes, n)
		mu.Unlock()
	}
}

// waitState blocks until the coalescer has parked requests pending and
// running batches being evaluated.
func waitState(co *gradCoalescer, parked, running int) {
	for {
		co.mu.Lock()
		ok := co.waiting == parked && co.running == running
		co.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// TestCoalescerFullSetFiresOnce: with one lane — GOMAXPROCS=1, the
// sharing regime — requests park until every in-segment chain has
// submitted, and the last submitter runs exactly one fused evaluation
// carrying all of them. Chains in step with each other, as HMC
// trajectories of equal length are, therefore keep every slot of every
// sweep filled: occupancy 4 of 4.
func TestCoalescerFullSetFiresOnce(t *testing.T) {
	const chains, leapfrogs = 4, 25
	var mu sync.Mutex
	var sizes []int
	co := newGradCoalescer(chains, 1, countingEval(&sizes, &mu), nil)
	co.arm([]bool{true, true, true, true})
	var wg sync.WaitGroup
	for c := 0; c < chains; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			q, g := []float64{0}, []float64{0}
			for i := 0; i < leapfrogs; i++ {
				if lp := co.submit(c, q, g); lp != 100+float64(c) || g[0] != float64(c) {
					t.Errorf("chain %d request %d got lp %v grad %v", c, i, lp, g[0])
				}
			}
			co.leave(c)
		}(c)
	}
	wg.Wait()
	if len(sizes) != leapfrogs {
		t.Fatalf("%d sweeps for %d leapfrogs in step, want one each", len(sizes), leapfrogs)
	}
	for i, n := range sizes {
		if n != chains {
			t.Fatalf("sweep %d carried %d of %d chains", i, n, chains)
		}
	}
	if occ := co.report().RealOccupancy(); occ < 3.5 {
		t.Errorf("occupancy %.2f of 4", occ)
	}
}

// TestCoalescerLastLeaverFlushes: a chain that finishes its step while
// the others are parked in the rendezvous must flush the pending partial
// batch on its way out — there is no timer, nothing else would.
func TestCoalescerLastLeaverFlushes(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	co := newGradCoalescer(3, 1, countingEval(&sizes, &mu), nil)
	co.arm([]bool{true, true, true})
	qs := [][]float64{{0}, {1}, {2}}
	grads := [][]float64{{0}, {0}, {0}}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if lp := co.submit(c, qs[c], grads[c]); lp != 100+float64(c) {
				t.Errorf("chain %d lp %v", c, lp)
			}
		}(c)
	}
	waitState(co, 2, 0)
	co.leave(2) // chain 2 needs no gradient this round: flush on its way out
	wg.Wait()
	co.leave(0)
	co.leave(1)
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("batch sizes %v, want [2]", sizes)
	}
}

// TestCoalescerLoneStragglerFires: the last chain still in the round has
// nobody to wait for, so each of its requests fires at once, alone, on its
// own goroutine — served by the chain's own target when the coalescer has
// it, by the batch evaluation otherwise. With a second lane the same
// holds while another chain is still computing.
func TestCoalescerLoneStragglerFires(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	inner := []Target{&soloTarget{lp: 7}, &soloTarget{lp: 8}}
	for _, tc := range []struct {
		name       string
		lanes      int
		inner      []Target
		leaveFirst bool
		want       float64
		batches    int
	}{
		{"one lane, companion left, fused", 1, nil, true, 100, 1},
		{"one lane, companion left, own target", 1, inner, true, 7, 0},
		{"two lanes, companion computing", 2, inner, false, 7, 0},
	} {
		sizes = sizes[:0]
		co := newGradCoalescer(2, tc.lanes, countingEval(&sizes, &mu), tc.inner)
		co.arm([]bool{true, true})
		if tc.leaveFirst {
			co.leave(1)
		}
		if lp := co.submit(0, []float64{0}, []float64{0}); lp != tc.want {
			t.Errorf("%s: lp %v, want %v", tc.name, lp, tc.want)
		}
		co.leave(0)
		if !tc.leaveFirst {
			co.leave(1)
		}
		if len(sizes) != tc.batches {
			t.Errorf("%s: fused batch sizes %v, want %d of them", tc.name, sizes, tc.batches)
		}
		if rep := co.report(); rep.Sweeps != 1 || rep.RealRows != 1 {
			t.Errorf("%s: accounted %d sweeps / %d rows, want 1 / 1", tc.name, rep.Sweeps, rep.RealRows)
		}
	}
}

// soloTarget is a chain's own target as the coalescer sees it for a
// one-row batch.
type soloTarget struct{ lp float64 }

func (s *soloTarget) Dim() int                              { return 1 }
func (s *soloTarget) LogDensity([]float64) float64          { return s.lp }
func (s *soloTarget) LogDensityGrad(q, g []float64) float64 { g[0] = s.lp; return s.lp }

// TestCoalescerLanesDisjoint drives four chains through a two-lane
// coalescer with an evaluation slow enough for batches to overlap: no
// chain may ever be in two running batches, no more than two batches may
// run at once, and every request must come back with its own result.
func TestCoalescerLanesDisjoint(t *testing.T) {
	const chains, lanes, rounds = 4, 2, 200
	var busy [chains]atomic.Bool
	var running, peak, batches atomic.Int32
	eval := func(qs, grads [][]float64, lps []float64) {
		now := running.Add(1)
		for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
		}
		batches.Add(1)
		for c, q := range qs {
			if q == nil {
				continue
			}
			if !busy[c].CompareAndSwap(false, true) {
				t.Errorf("chain %d is in two running batches", c)
			}
		}
		runtime.Gosched() // let the other lane start while this one holds its rows
		for c, q := range qs {
			if q == nil {
				continue
			}
			lps[c] = q[0]
			grads[c][0] = -q[0]
			busy[c].Store(false)
		}
		running.Add(-1)
	}
	co := newGradCoalescer(chains, lanes, eval, nil)
	active := []bool{true, true, true, true}
	for r := 0; r < rounds; r++ {
		co.arm(active)
		var wg sync.WaitGroup
		for c := 0; c < chains; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				q, g := []float64{0}, []float64{0}
				// Uneven trajectories, like NUTS: chain c asks 1+c+r%3 times.
				for i := 0; i < 1+c+r%3; i++ {
					q[0] = float64(1000*r + 10*c + i)
					if lp := co.submit(c, q, g); lp != q[0] || g[0] != -q[0] {
						t.Errorf("round %d chain %d request %d: got lp %v grad %v", r, c, i, lp, g[0])
					}
				}
				co.leave(c)
			}(c)
		}
		wg.Wait()
	}
	if p := peak.Load(); p > lanes {
		t.Errorf("%d batches ran at once on %d lanes", p, lanes)
	}
	rep := co.report()
	want := int64(0)
	for r := 0; r < rounds; r++ {
		for c := 0; c < chains; c++ {
			want += int64(1 + c + r%3)
		}
	}
	if rep.RealRows != want || rep.Sweeps != int64(batches.Load()) {
		t.Errorf("accounted %d rows in %d sweeps, want %d rows in %d", rep.RealRows, rep.Sweeps, want, batches.Load())
	}
}

// TestCoalescerPanicQuarantine: a panic escaping the fused evaluation
// re-raises on the chain that ran the batch and surfaces as NaN on every
// other member, so nobody is stranded and the runner's non-finite check
// quarantines the members.
func TestCoalescerPanicQuarantine(t *testing.T) {
	co := newGradCoalescer(2, 1, func(qs, grads [][]float64, lps []float64) {
		panic("kernel fault")
	}, nil)
	co.arm([]bool{true, true})
	type outcome struct {
		lp    float64
		panic any
	}
	res := make([]outcome, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer func() { res[c].panic = recover() }()
			res[c].lp = co.submit(c, []float64{0}, []float64{0})
		}(c)
	}
	wg.Wait()
	co.leave(0)
	co.leave(1)
	panics, nans := 0, 0
	for c := 0; c < 2; c++ {
		if res[c].panic != nil {
			if res[c].panic != "kernel fault" {
				t.Errorf("chain %d panic %v", c, res[c].panic)
			}
			panics++
		} else if math.IsNaN(res[c].lp) {
			nans++
		}
	}
	if panics != 1 || nans != 1 {
		t.Fatalf("got %d panics, %d NaN members; want exactly 1 of each", panics, nans)
	}
}

// TestCoalescerPanicStaysInItsLane: with two lanes, a batch that panics
// poisons its own members only — the request being evaluated beside it in
// the other lane returns its clean result.
func TestCoalescerPanicStaysInItsLane(t *testing.T) {
	faultGate, cleanGate := make(chan struct{}), make(chan struct{})
	eval := func(qs, grads [][]float64, lps []float64) {
		if qs[2] != nil {
			<-cleanGate
			lps[2] = 42
			return
		}
		<-faultGate
		panic("kernel fault")
	}
	co := newGradCoalescer(3, 2, eval, nil)
	co.arm([]bool{true, true, true})
	var parked, clean float64
	var recovered any
	var faulted, cleaned sync.WaitGroup
	faulted.Add(2)
	go func() { // chain 0 parks: two chains are still computing
		defer faulted.Done()
		parked = co.submit(0, []float64{0}, []float64{0})
	}()
	waitState(co, 1, 0)
	go func() { // chain 1 leaves one chain computing: it leads {0, 1}
		defer faulted.Done()
		defer func() { recovered = recover() }()
		co.submit(1, []float64{0}, []float64{0})
	}()
	waitState(co, 0, 1)
	cleaned.Add(1)
	go func() { // chain 2 has a free lane and nobody to wait for
		defer cleaned.Done()
		clean = co.submit(2, []float64{0}, []float64{0})
	}()
	waitState(co, 0, 2)
	close(faultGate)
	faulted.Wait()
	close(cleanGate)
	cleaned.Wait()
	for c := 0; c < 3; c++ {
		co.leave(c)
	}
	if recovered != "kernel fault" {
		t.Errorf("leader recovered %v, want the kernel fault", recovered)
	}
	if !math.IsNaN(parked) {
		t.Errorf("faulted batch's member got lp %v, want NaN", parked)
	}
	if clean != 42 {
		t.Errorf("the other lane's request got lp %v, want 42", clean)
	}
	if rep := co.report(); rep.Sweeps != 1 || rep.RealRows != 3 {
		t.Errorf("accounted %d clean sweeps / %d rows, want 1 / 3", rep.Sweeps, rep.RealRows)
	}
}

// TestCoalescerRoundZeroAlloc guards the steady-state round loop: with
// two lanes, a round in which one chain's batch runs beside the other's —
// arm, park, overlapping batches from pooled snapshots, wake, leave —
// must not allocate once the coalescer is warm.
func TestCoalescerRoundZeroAlloc(t *testing.T) {
	const chains = 3
	co := newGradCoalescer(chains, 2, func(qs, grads [][]float64, lps []float64) {
		runtime.Gosched() // AllocsPerRun measures on one P: yield so the lanes overlap anyway
		for c, q := range qs {
			if q != nil {
				lps[c] = 1
			}
		}
	}, nil)
	active := []bool{true, true, true}
	// Chains 1 and 2 live on persistent goroutines, as the runner's
	// workers do; chain 0 is the measured goroutine.
	var start [chains]chan struct{}
	var done sync.WaitGroup
	for c := 1; c < chains; c++ {
		c := c
		start[c] = make(chan struct{})
		go func() {
			q, g := []float64{0}, []float64{0}
			for range start[c] {
				co.submit(c, q, g)
				co.submit(c, q, g)
				co.leave(c)
				done.Done()
			}
		}()
	}
	q, g := []float64{0}, []float64{0}
	round := func() {
		co.arm(active)
		done.Add(chains - 1)
		for c := 1; c < chains; c++ {
			start[c] <- struct{}{}
		}
		co.submit(0, q, g)
		co.leave(0)
		done.Wait()
	}
	for i := 0; i < 20; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(500, round); avg != 0 {
		t.Errorf("coalescer segment loop allocates %.1f per segment, want 0", avg)
	}
	for c := 1; c < chains; c++ {
		close(start[c])
	}
}

// TestBatchEvaluatorSteadyStateZeroAlloc extends the guard through the
// model layer: a warm LogDensityGradBatch over live chains is
// allocation-free.
func TestBatchEvaluatorSteadyStateZeroAlloc(t *testing.T) {
	m := newBatchedGLMModel(1000, 2, 4, 11)
	be, ok := model.NewBatchEvaluator(m, 4)
	if !ok {
		t.Fatal("model is not batchable")
	}
	dim := m.Dim()
	r := rng.New(3)
	qs := make([][]float64, 4)
	grads := make([][]float64, 4)
	lps := make([]float64, 4)
	for c := range qs {
		qs[c] = make([]float64, dim)
		grads[c] = make([]float64, dim)
		for i := range qs[c] {
			qs[c][i] = 0.3 * r.Norm()
		}
	}
	for i := 0; i < 10; i++ {
		be.LogDensityGradBatch(qs, grads, lps)
	}
	if avg := testing.AllocsPerRun(200, func() {
		be.LogDensityGradBatch(qs, grads, lps)
	}); avg != 0 {
		t.Errorf("LogDensityGradBatch allocates %.1f per call, want 0", avg)
	}
}
