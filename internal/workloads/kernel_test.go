package workloads

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
)

// kernelWorkloads returns the registry entries whose default model runs
// through the fused kernel layer.
func kernelWorkloads(t *testing.T, scale float64, seed uint64) []*Workload {
	t.Helper()
	var out []*Workload
	for _, w := range All(scale, seed) {
		if w.UsesKernels() {
			out = append(out, w)
		}
	}
	if len(out) < 9 {
		t.Fatalf("expected at least 9 kernel-backed workloads, got %d", len(out))
	}
	return out
}

// closeTo reports whether a kernel-path number matches the tape oracle's:
// identical (which covers a rejection's -Inf and zero gradient on both
// sides), or both finite and within 1e-8 relative. A finite value against
// a non-finite one is a mismatch, not a NaN that compares false.
func closeTo(kernel, tape float64) bool {
	if kernel == tape {
		return true
	}
	if math.IsNaN(kernel) || math.IsInf(kernel, 0) || math.IsNaN(tape) || math.IsInf(tape, 0) {
		return false
	}
	return math.Abs(kernel-tape)/(1+math.Abs(tape)) <= 1e-8
}

// checkEquivalent compares the two paths' log density and every gradient
// coordinate at q.
func checkEquivalent(t *testing.T, label string, evK, evT *model.Evaluator, q []float64) {
	t.Helper()
	gK := make([]float64, len(q))
	gT := make([]float64, len(q))
	lpK := evK.LogDensityGrad(q, gK)
	lpT := evT.LogDensityGrad(q, gT)
	if !closeTo(lpK, lpT) {
		t.Errorf("%s: logp kernel %.12g vs tape %.12g", label, lpK, lpT)
	}
	for i := range gK {
		if !closeTo(gK[i], gT[i]) {
			t.Errorf("%s grad[%d]: kernel %.12g vs tape %.12g", label, i, gK[i], gT[i])
		}
	}
}

// adversarialPoints returns unconstrained points that push a model off
// the comfortable middle: magnitude log(1e-3) puts every scale parameter
// at 1e-3 (or 1e3), 8 saturates sigmoids to within 3e-4 of 0 and 1, and 40
// crosses the softplus cut-overs (> 33.3 returns x, < -37 returns exp x)
// and overflows probabilities to exactly 0 and 1, where the tape oracle
// rejects and the kernel must too. Each magnitude comes with one sign on
// every coordinate, the other, and on every third coordinate of an
// otherwise ordinary point.
func adversarialPoints(dim int, r *rng.RNG) [][]float64 {
	var pts [][]float64
	for _, mag := range []float64{-math.Log(1e-3), 8, 40} {
		for _, sign := range []float64{1, -1} {
			all := make([]float64, dim)
			some := make([]float64, dim)
			flip := make([]float64, dim)
			alt := sign
			for i := range all {
				all[i] = sign * mag
				some[i] = 0.6 * r.Norm()
				flip[i] = 0.6 * r.Norm()
				if i%3 == 0 {
					some[i] = sign * mag
					flip[i] = alt * mag
					alt = -alt
				}
			}
			pts = append(pts, all, some, flip)
		}
	}
	return pts
}

// wellConditioned reports whether the tape oracle reproduces its own
// gradient to 1e-10 when every input moves by a few ulps. Where it does
// not, two correct evaluation orders cannot be asked to agree to 1e-8
// either: votes' kernel matrix at alpha = e^8 with a 1e-6 jitter has a
// condition number near 1e14, and there the oracle differs from itself by
// 1e-8 to 1e-4. Every other workload passes this at every adversarial
// point (self-differences below 1e-12).
func wellConditioned(evT *model.Evaluator, q []float64) bool {
	g := make([]float64, len(q))
	g2 := make([]float64, len(q))
	q2 := make([]float64, len(q))
	for i, v := range q {
		q2[i] = v + v*0x1p-50
	}
	evT.LogDensityGrad(q, g)
	evT.LogDensityGrad(q2, g2)
	for i := range g {
		if math.Abs(g[i]-g2[i])/(1+math.Abs(g[i])) > 1e-10 {
			return false
		}
	}
	return true
}

// TestKernelTapeEquivalence is the exhaustive acceptance suite for the
// kernel rewrite: for every converted workload, the kernel path and the
// legacy tape path must agree on log density and every gradient
// coordinate to 1e-8 (relative, per the ISSUE 2 criterion) at random
// unconstrained points and at the adversarial ones.
func TestKernelTapeEquivalence(t *testing.T) {
	for _, w := range kernelWorkloads(t, 0.5, 3) {
		w := w
		t.Run(w.Info.Name, func(t *testing.T) {
			evK := model.NewEvaluator(w.Model)
			evT := model.NewEvaluator(w.TapeModel())
			r := rng.New(17)
			q := make([]float64, evK.Dim())
			for trial := 0; trial < 5; trial++ {
				for i := range q {
					q[i] = 0.6 * r.Norm()
				}
				checkEquivalent(t, "trial "+itoa(trial), evK, evT, q)
			}
			checked := 0
			for i, q := range adversarialPoints(evK.Dim(), r) {
				if !wellConditioned(evT, q) {
					continue
				}
				checked++
				checkEquivalent(t, "adversarial "+itoa(i), evK, evT, q)
			}
			if checked < 9 {
				t.Errorf("only %d of 18 adversarial points are well-conditioned enough to test", checked)
			}
		})
	}
}

// TestKernelShrinksTape guards the characterization coupling: the kernel
// path must record O(dim) tape nodes while the legacy path keeps the
// node-per-observation structure the hardware model measures. If this
// fails, either the kernels regressed to taping observations or the
// legacy path stopped being data-proportional.
func TestKernelShrinksTape(t *testing.T) {
	for _, w := range kernelWorkloads(t, 1.0, 3) {
		evK := model.NewEvaluator(w.Model)
		evT := model.NewEvaluator(w.TapeModel())
		dim := evK.Dim()
		q := make([]float64, dim)
		g := make([]float64, dim)
		evK.LogDensityGrad(q, g)
		evT.LogDensityGrad(q, g)
		if evK.TapeNodes > 6*dim+64 {
			t.Errorf("%s: kernel path tape has %d nodes for dim %d — not O(dim)",
				w.Info.Name, evK.TapeNodes, dim)
		}
		if evT.TapeNodes <= evK.TapeNodes {
			t.Errorf("%s: legacy tape (%d nodes) not larger than kernel tape (%d)",
				w.Info.Name, evT.TapeNodes, evK.TapeNodes)
		}
	}
}

// TestDiseaseKernelTapeIsBlocked: disease's kernel path records its
// inputs and nine nodes at any scale — the stage prior, the logit
// Jacobian, one block prior per positive family, the likelihood and the
// four sums joining them. A Builder.Positive transform and a prior node
// per positive parameter would add five nodes for each of them.
func TestDiseaseKernelTapeIsBlocked(t *testing.T) {
	for _, scale := range []float64{0.03, 0.5} {
		w, err := New("disease", scale, 3)
		if err != nil {
			t.Fatal(err)
		}
		ev := model.NewEvaluator(w.Model)
		ev.LogDensityGrad(make([]float64, ev.Dim()), make([]float64, ev.Dim()))
		if ev.TapeNodes != ev.Dim()+9 {
			t.Errorf("disease@%g: kernel tape has %d nodes for dim %d, want dim + 9", scale, ev.TapeNodes, ev.Dim())
		}
	}
}

// neverStop keeps a run's chains meeting at every CheckInterval segment
// end for its whole budget.
type neverStop struct{}

func (neverStop) ShouldStop([]*mcmc.Samples, int) bool { return false }

// TestKernelWorkloadParallelismDeterminism pins the one parallelism input
// the kernel-backed path has left: a seeded run of a real workload with
// BatchGrad set must produce, at GOMAXPROCS 1, 2 and 8, the very draws a
// one-segment run of per-chain evaluators produces. GOMAXPROCS also
// decides the path: at 1 every demanded gradient goes through the
// coalescer, with more cores BatchGrad is never called and the chains
// step on their own evaluators.
func TestKernelWorkloadParallelismDeterminism(t *testing.T) {
	wl, _ := New("ad", 0.25, 9)
	cfg := mcmc.Config{Chains: 4, Iterations: 120, Seed: 77}
	var evs []*model.Evaluator
	want := mcmc.Run(cfg, func() mcmc.Target {
		evs = append(evs, model.NewEvaluator(wl.Model))
		return evs[len(evs)-1]
	}).Draws()
	var wantEvals int64 // every gradient the chains demand, initialization included
	for _, ev := range evs {
		wantEvals += ev.GradEvals
	}

	cfg.Parallel = true
	cfg.StopRule = neverStop{}
	cfg.CheckpointEvery = 50
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			be, ok := model.NewBatchEvaluator(wl.Model, cfg.Chains)
			if !ok {
				t.Fatal("ad is not batchable")
			}
			var calls, rows atomic.Int64
			bcfg := cfg
			bcfg.BatchGrad = func(qs, grads [][]float64, lps []float64) {
				calls.Add(1)
				for _, q := range qs {
					if q != nil {
						rows.Add(1)
					}
				}
				be.LogDensityGradBatch(qs, grads, lps)
			}
			next := 0
			res := mcmc.Run(bcfg, func() mcmc.Target {
				c := next
				next++
				return be.Chain(c)
			})
			var evals int64
			for c := 0; c < cfg.Chains; c++ {
				evals += be.Chain(c).GradEvals
			}
			// Row conservation on either path: each demanded gradient is
			// evaluated once, fused or by its chain's own evaluator (a
			// one-row batch never reaches BatchGrad).
			if evals != wantEvals {
				t.Fatalf("GOMAXPROCS %d: %d gradients evaluated, the one-segment run evaluated %d",
					procs, evals, wantEvals)
			}
			if procs == 1 {
				if calls.Load() == 0 || rows.Load() > res.TotalWork() {
					t.Fatalf("GOMAXPROCS 1: %d BatchGrad calls carried %d rows for %d demanded gradients",
						calls.Load(), rows.Load(), res.TotalWork())
				}
			} else if calls.Load() != 0 {
				t.Fatalf("GOMAXPROCS %d: coalescer built (%d BatchGrad calls), want free-running chains",
					procs, calls.Load())
			}
			got := res.Draws()
			for c := range want {
				for i := range want[c] {
					for d := range want[c][i] {
						if want[c][i][d] != got[c][i][d] {
							t.Fatalf("GOMAXPROCS %d chain %d draw %d dim %d: %.17g (one segment) != %.17g (batched)",
								procs, c, i, d, want[c][i][d], got[c][i][d])
						}
					}
				}
			}
		}()
	}
}

// TestKernelGradAllocsZero is the steady-state allocation guard for the
// kernel-path gradient evaluation the samplers drive.
func TestKernelGradAllocsZero(t *testing.T) {
	for _, w := range kernelWorkloads(t, 0.5, 3) {
		w := w
		t.Run(w.Info.Name, func(t *testing.T) {
			ev := model.NewEvaluator(w.Model)
			dim := ev.Dim()
			r := rng.New(5)
			q := make([]float64, dim)
			for i := range q {
				q[i] = 0.3 * r.Norm()
			}
			grad := make([]float64, dim)
			for i := 0; i < 10; i++ {
				ev.LogDensityGrad(q, grad) // reach arena high-water marks
			}
			if avg := testing.AllocsPerRun(200, func() {
				ev.LogDensityGrad(q, grad)
			}); avg != 0 {
				t.Errorf("kernel gradient path allocates %.1f per evaluation, want 0", avg)
			}
		})
	}
}

// batchable lists the workloads whose kernels share a data sweep across
// chains (model.BatchableModel). The list is explicit so that batchability
// cannot be lost silently. The collapsed and fused ports are not on it on
// purpose: a likelihood reduced to counts has no data sweep left to share,
// and at their few-microsecond gradients the coalescer loses to per-chain
// gradients (DESIGN.md, "Collapsed likelihoods").
var batchable = map[string]bool{"tickets": true, "memory": true, "ad": true, "12cities": true}

// TestBatchedWorkloadBitIdentical checks the BatchableModel contract for
// every batchable workload: a fused LogDensityGradBatch over K chains
// must reproduce each chain's independent LogDensityGrad bit-for-bit —
// including a chain sitting at a non-finite point, which must quarantine
// to lp=-Inf with a zero gradient without disturbing its batchmates.
// Every other model, and every legacy tape model, must not be batchable.
func TestBatchedWorkloadBitIdentical(t *testing.T) {
	const K = 4
	for _, w := range All(0.5, 3) {
		w := w
		t.Run(w.Info.Name, func(t *testing.T) {
			be, ok := model.NewBatchEvaluator(w.Model, K)
			if ok != batchable[w.Info.Name] {
				t.Fatalf("%s: batchable = %v, want %v", w.Info.Name, ok, batchable[w.Info.Name])
			}
			if _, legacyOK := model.NewBatchEvaluator(w.TapeModel(), K); legacyOK {
				t.Fatalf("%s: legacy tape model unexpectedly batchable", w.Info.Name)
			}
			if !ok {
				return
			}
			ref := model.NewEvaluator(w.Model)
			dim := ref.Dim()
			r := rng.New(41)
			qs := make([][]float64, K)
			grads := make([][]float64, K)
			want := make([][]float64, K)
			lps := make([]float64, K)
			for c := 0; c < K; c++ {
				qs[c] = make([]float64, dim)
				grads[c] = make([]float64, dim)
				want[c] = make([]float64, dim)
			}
			for trial := 0; trial < 3; trial++ {
				for c := 0; c < K; c++ {
					for i := range qs[c] {
						qs[c][i] = 0.5 * r.Norm()
					}
				}
				if trial == 2 {
					qs[1][0] = math.NaN() // quarantine candidate mid-batch
				}
				be.LogDensityGradBatch(qs, grads, lps)
				for c := 0; c < K; c++ {
					wantLP := ref.LogDensityGrad(qs[c], want[c])
					if lps[c] != wantLP {
						t.Errorf("trial %d chain %d: batched lp %.17g != single %.17g",
							trial, c, lps[c], wantLP)
					}
					for i := range want[c] {
						if grads[c][i] != want[c][i] {
							t.Fatalf("trial %d chain %d grad[%d]: batched %.17g != single %.17g",
								trial, c, i, grads[c][i], want[c][i])
						}
					}
				}
			}
		})
	}
}
