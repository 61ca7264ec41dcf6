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

// batchedRun is a run on the fused gradient path with the test's own
// accounting: calls counts BatchGrad invocations and rows the chain
// requests they carried; evals sums the gradients the chains' evaluators
// computed, in fused sweeps or alone, from initialization on.
type batchedRun struct {
	*Result
	calls, rows, evals int64
}

// runBatched runs cfg over a fresh BatchEvaluator for m, wired to the
// fused gradient path through a counting BatchGrad.
func runBatched(t *testing.T, m *batchedGLMModel, cfg Config) batchedRun {
	t.Helper()
	be, ok := model.NewBatchEvaluator(m, cfg.Chains)
	if !ok {
		t.Fatal("model is not batchable")
	}
	var calls, rows atomic.Int64
	next := 0
	cfg.BatchGrad = func(qs, grads [][]float64, lps []float64) {
		calls.Add(1)
		for _, q := range qs {
			if q != nil {
				rows.Add(1)
			}
		}
		be.LogDensityGradBatch(qs, grads, lps)
	}
	res := Run(cfg, func() Target {
		c := next
		next++
		return be.Chain(c)
	})
	run := batchedRun{Result: res, calls: calls.Load(), rows: rows.Load()}
	for c := 0; c < cfg.Chains; c++ {
		run.evals += be.Chain(c).GradEvals
	}
	return run
}

// runPlain runs cfg on per-chain evaluators of m and returns the result
// with the number of gradients those evaluators computed.
func runPlain(m *batchedGLMModel, cfg Config) (*Result, int64) {
	var evs []*model.Evaluator
	res := Run(cfg, func() Target {
		ev := model.NewEvaluator(m)
		evs = append(evs, ev)
		return ev
	})
	var evals int64
	for _, ev := range evs {
		evals += ev.GradEvals
	}
	return res, evals
}

// withProcs runs f at GOMAXPROCS n — the only parallelism input the
// batched path has — and restores the previous setting.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// pinOneProc runs the rest of t at GOMAXPROCS 1, the only setting at
// which the runner builds a coalescer, and restores the previous setting
// once t and its subtests are done.
func pinOneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestCoalescedLockstepDeterminism is the end-to-end draw-preservation
// guarantee of the batched gradient path: a parallel run with a StopRule
// and BatchGrad set must produce draws bit-identical to the same run
// evaluating each chain independently — for both samplers, at every
// GOMAXPROCS, on a fresh run, across a checkpoint/resume, and with a chain
// quarantined. At GOMAXPROCS 1 the coalescer runs full sets and every
// gradient a chain demanded within a segment is evaluated exactly once;
// with more cores it is never built.
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
			plain, plainEvals := runPlain(m, base)
			qCfg := base
			qCfg.FaultHook = hook
			qPlain := Run(qCfg, func() Target { return model.NewEvaluator(m) })
			if qPlain.Chains[2].Fault == nil {
				t.Fatal("chain 2 was not quarantined on the unbatched path")
			}

			for _, procs := range []int{1, 2, 8} {
				withProcs(procs, func() {
					label := fmt.Sprintf("%s procs=%d", kind, procs)
					batched := runBatched(t, m, base)
					sameDraws(t, label+" batched-vs-per-chain", plain, batched.Result)

					if procs > 1 {
						if batched.calls != 0 {
							t.Errorf("%s: coalescer built beside a second core: %d BatchGrad calls", label, batched.calls)
						}
					} else {
						if batched.calls == 0 {
							t.Fatalf("%s: coalescer never executed a batch", label)
						}
						// Row conservation: every gradient a chain demanded was
						// evaluated exactly once, as on the per-chain run.
						if batched.evals != plainEvals {
							t.Errorf("%s: %d gradients evaluated, the per-chain run evaluated %d",
								label, batched.evals, plainEvals)
						}
						// A request alone in its batch is served by its chain's
						// own evaluator, so the demanded rows BatchGrad never
						// saw are the one-row batches.
						solo := batched.TotalWork() - batched.rows
						// The coalescer waits for full sets: every batch carries
						// every chain still in the segment, so a segment costs
						// as many batches as its busiest chain has leapfrogs.
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
						if sweeps := batched.calls + solo; sweeps != fullSets {
							t.Errorf("%s: %d batches, want %d — one per leapfrog of each segment's busiest chain",
								label, sweeps, fullSets)
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
					resumed := runBatched(t, m, resCfg)
					sameDraws(t, label+" checkpoint-resume batched vs fresh plain", plain, resumed.Result)

					qBatched := runBatched(t, m, qCfg)
					sameDraws(t, label+" quarantine batched vs plain", qPlain, qBatched.Result)
					if qBatched.Chains[2].Fault == nil {
						t.Errorf("%s: chain 2 was not quarantined on the batched path", label)
					}
				})
			}

			// A sequential run ignores BatchGrad entirely and must
			// still agree (the coalescer only engages on the parallel path).
			seqCfg := base
			seqCfg.Parallel = false
			seq := runBatched(t, m, seqCfg)
			sameDraws(t, kind.String()+" sequential ignores BatchGrad", plain, seq.Result)
			if seq.calls != 0 {
				t.Errorf("sequential run executed %d fused sweeps, want 0", seq.calls)
			}
		})
	}
}

// TestCoalescerFireRule is the truth table of the scheduling rule, then
// its defining property checked over every small state: it fires exactly
// on full sets.
func TestCoalescerFireRule(t *testing.T) {
	for _, tc := range []struct {
		name             string
		inRound, waiting int
		want             bool
	}{
		{"nothing pending", 4, 0, false},
		{"partial set", 4, 3, false},
		{"full set", 4, 4, true},
		{"full set of the survivors", 2, 2, true},
		{"lone survivor", 1, 1, true},
	} {
		if got := fires(tc.inRound, tc.waiting); got != tc.want {
			t.Errorf("%s: fires(inRound=%d waiting=%d) = %v, want %v",
				tc.name, tc.inRound, tc.waiting, got, tc.want)
		}
	}
	const n = 6
	for inRound := 0; inRound <= n; inRound++ {
		for waiting := 0; waiting <= inRound; waiting++ {
			if got, full := fires(inRound, waiting), waiting > 0 && waiting == inRound; got != full {
				t.Fatalf("inRound=%d waiting=%d: fires=%v, full set=%v", inRound, waiting, got, full)
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

// waitState blocks until the coalescer has parked requests pending.
func waitState(co *gradCoalescer, parked int) {
	for {
		co.mu.Lock()
		ok := co.waiting == parked
		co.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// TestCoalescerFullSetFiresOnce: requests park until every in-segment
// chain has
// submitted, and the last submitter runs exactly one fused evaluation
// carrying all of them. Chains in step with each other, as HMC
// trajectories of equal length are, therefore keep every slot of every
// sweep filled: occupancy 4 of 4.
func TestCoalescerFullSetFiresOnce(t *testing.T) {
	pinOneProc(t)
	const chains, leapfrogs = 4, 25
	var mu sync.Mutex
	var sizes []int
	co := newGradCoalescer(chains, countingEval(&sizes, &mu), nil)
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
}

// TestCoalescerLastLeaverFlushes: a chain that finishes its step while
// the others are parked in the rendezvous must flush the pending partial
// batch on its way out — there is no timer, nothing else would.
func TestCoalescerLastLeaverFlushes(t *testing.T) {
	pinOneProc(t)
	var mu sync.Mutex
	var sizes []int
	co := newGradCoalescer(3, countingEval(&sizes, &mu), nil)
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
	waitState(co, 2)
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
// it, by the batch evaluation otherwise.
func TestCoalescerLoneStragglerFires(t *testing.T) {
	pinOneProc(t)
	var mu sync.Mutex
	var sizes []int
	own := &soloTarget{lp: 7}
	inner := []Target{own, &soloTarget{lp: 8}}
	for _, tc := range []struct {
		name    string
		inner   []Target
		want    float64
		batches int
	}{
		{"companion left, fused", nil, 100, 1},
		{"companion left, own target", inner, 7, 0},
	} {
		sizes = sizes[:0]
		co := newGradCoalescer(2, countingEval(&sizes, &mu), tc.inner)
		co.arm([]bool{true, true})
		co.leave(1)
		if lp := co.submit(0, []float64{0}, []float64{0}); lp != tc.want {
			t.Errorf("%s: lp %v, want %v", tc.name, lp, tc.want)
		}
		co.leave(0)
		if len(sizes) != tc.batches {
			t.Errorf("%s: fused batch sizes %v, want %d of them", tc.name, sizes, tc.batches)
		}
		// One request, evaluated exactly once: by the fused batch or by
		// the chain's own target, never both.
		rows := own.calls
		for _, n := range sizes {
			rows += n
		}
		if evals := len(sizes) + own.calls; evals != 1 || rows != 1 {
			t.Errorf("%s: %d evaluations / %d rows, want 1 / 1", tc.name, evals, rows)
		}
		own.calls = 0
	}
}

// soloTarget is a chain's own target as the coalescer sees it for a
// one-row batch; calls counts its gradient evaluations.
type soloTarget struct {
	lp    float64
	calls int
}

func (s *soloTarget) Dim() int                     { return 1 }
func (s *soloTarget) LogDensity([]float64) float64 { return s.lp }
func (s *soloTarget) LogDensityGrad(q, g []float64) float64 {
	s.calls++
	g[0] = s.lp
	return s.lp
}

// TestCoalescerPanicQuarantine: a panic escaping the fused evaluation
// re-raises on the chain that ran the batch and surfaces as NaN on every
// other member, so nobody is stranded and the runner's non-finite check
// quarantines the members.
func TestCoalescerPanicQuarantine(t *testing.T) {
	pinOneProc(t)
	co := newGradCoalescer(2, func(qs, grads [][]float64, lps []float64) {
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

// TestCoalescerRoundZeroAlloc guards the steady-state round loop: a
// round — arm, park, a full set, a set shrunk by a leaver, wake, leave —
// must not allocate once the coalescer is warm.
func TestCoalescerRoundZeroAlloc(t *testing.T) {
	pinOneProc(t)
	const chains = 3
	co := newGradCoalescer(chains, func(qs, grads [][]float64, lps []float64) {
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
