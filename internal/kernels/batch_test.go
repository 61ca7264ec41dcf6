package kernels

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"bayessuite/internal/ad"
)

// batchPoints builds K parameter vectors around the fixture's point by
// deterministic per-chain perturbation, so chains disagree but stay in a
// numerically ordinary region.
func batchPoints(base []float64, k int) [][]float64 {
	pts := make([][]float64, k)
	for c := range pts {
		q := append([]float64(nil), base...)
		for j := range q {
			q[j] += 0.01 * float64(c+1) * float64(j%5-2)
		}
		pts[c] = q
	}
	return pts
}

// singleEval recovers the kernel's single-parameter value, gradient, and
// non-finite panic for one parameter vector.
func singleEval(dim int, q []float64, rec func(t *ad.Tape, in []ad.Var) ad.Var) (val float64, grad []float64, ferr *ad.ErrNonFinite) {
	tp := ad.NewTape(0)
	in := tp.Input(q[:dim])
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*ad.ErrNonFinite)
			if !ok {
				panic(r)
			}
			ferr = e
		}
	}()
	out := rec(tp, in)
	grad = make([]float64, dim)
	tp.Grad(out, grad)
	val = out.Value()
	return val, grad, nil
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func checkBatchMatchesSingle(t *testing.T, name string, bk Batcher, params [][]float64, rec func(tp *ad.Tape, in []ad.Var) ad.Var) {
	t.Helper()
	dim := bk.InputDim()
	out := make([]BatchResult, len(params))
	bk.BatchEval(params, out)
	for c, pk := range params {
		if pk == nil {
			continue
		}
		val, grad, ferr := singleEval(dim, pk, rec)
		if ferr != nil || out[c].Err != nil {
			if ferr == nil || out[c].Err == nil {
				t.Fatalf("%s chain %d: single err %v, batch err %v", name, c, ferr, out[c].Err)
			}
			be := out[c].Err
			if be.Op != ferr.Op || be.Index != ferr.Index || !sameBits(be.Value, ferr.Value) {
				t.Fatalf("%s chain %d: single err %+v, batch err %+v", name, c, ferr, be)
			}
			continue
		}
		if !sameBits(out[c].Val, val) {
			t.Fatalf("%s chain %d: val batch %v single %v", name, c, out[c].Val, val)
		}
		if len(out[c].Partials) != dim {
			t.Fatalf("%s chain %d: partials len %d want %d", name, c, len(out[c].Partials), dim)
		}
		for j := range grad {
			if !sameBits(out[c].Partials[j], grad[j]) {
				t.Fatalf("%s chain %d partial %d: batch %v single %v", name, c, j, out[c].Partials[j], grad[j])
			}
		}
	}
}

// glmBatchCases enumerates every family over shapes that exercise the
// generic chain-inner sweep, the p==2 normal-id register quad (with and
// without group/offset structure), and remainder handling (K=5 = one
// quad + one generic leftover; K=3 generic only).
func glmBatchCases(t *testing.T, run func(name string, bk Batcher, base []float64, rec func(tp *ad.Tape, in []ad.Var) ad.Var)) {
	f := newFixture(3000, 4, 7, 11)
	bern := NewBernoulliLogitGLM(f.yBin, f.x, f.p, f.offset, f.group, f.g)
	run("bernoulli", bern, f.point(false), func(tp *ad.Tape, in []ad.Var) ad.Var {
		return bern.LogLik(tp, in[:f.p], in[f.p:f.p+f.g])
	})
	pois := NewPoissonLogGLM(f.yCount, f.x, f.p, f.offset, f.group, f.g)
	run("poisson", pois, f.point(false), func(tp *ad.Tape, in []ad.Var) ad.Var {
		return pois.LogLik(tp, in[:f.p], in[f.p:f.p+f.g])
	})
	norm := NewNormalIDGLM(f.yReal, f.x, f.p, f.offset, f.group, f.g)
	run("normal_p4", norm, f.point(true), func(tp *ad.Tape, in []ad.Var) ad.Var {
		return norm.LogLik(tp, in[:f.p], in[f.p:f.p+f.g], in[f.p+f.g])
	})

	f2 := newFixture(3000, 2, 5, 13)
	norm2 := NewNormalIDGLM(f2.yReal, f2.x, f2.p, f2.offset, f2.group, f2.g)
	run("normal_p2_grouped", norm2, f2.point(true), func(tp *ad.Tape, in []ad.Var) ad.Var {
		return norm2.LogLik(tp, in[:f2.p], in[f2.p:f2.p+f2.g], in[f2.p+f2.g])
	})
	// The benchmark shape: p==2, no offset, no group — the quad's nil
	// branches.
	plain := NewNormalIDGLM(f2.yReal, f2.x, f2.p, nil, nil, 0)
	run("normal_p2_plain", plain, append(append([]float64(nil), f2.betaVals...), f2.sigma), func(tp *ad.Tape, in []ad.Var) ad.Var {
		return plain.LogLik(tp, in[:2], nil, in[2])
	})
}

// TestBatchEvalBitIdenticalGLM: a fused sweep reproduces every chain's
// single evaluation bit for bit, for every family and batch size — and so
// do two lanes, the kernel and its Fork, sweeping disjoint rows into one
// result slice at the same time, which is how the coalescer's concurrent
// batches use them. GOMAXPROCS is the only parallelism input left.
func TestBatchEvalBitIdenticalGLM(t *testing.T) {
	glmBatchCases(t, func(name string, bk Batcher, base []float64, rec func(tp *ad.Tape, in []ad.Var) ad.Var) {
		for _, k := range []int{1, 3, 5} {
			checkBatchMatchesSingle(t, name, bk, batchPoints(base, k), rec)
		}

		const rows = 6
		pts := batchPoints(base, rows)
		ref := make([]BatchResult, rows)
		bk.BatchEval(pts, ref)
		lanes := []Batcher{bk, bk.Fork()}
		for _, procs := range []int{1, 2, 8} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for rep := 0; rep < 10; rep++ {
					out := make([]BatchResult, rows)
					var wg sync.WaitGroup
					for l, kn := range lanes {
						mine := make([][]float64, rows)
						for c := l; c < rows; c += len(lanes) {
							mine[c] = pts[c]
						}
						wg.Add(1)
						go func(kn Batcher) {
							defer wg.Done()
							kn.BatchEval(mine, out)
						}(kn)
					}
					wg.Wait()
					for c := range out {
						if out[c].Err != nil || ref[c].Err != nil {
							t.Fatalf("%s GOMAXPROCS %d chain %d: unexpected error %v / %v", name, procs, c, out[c].Err, ref[c].Err)
						}
						if !sameBits(out[c].Val, ref[c].Val) {
							t.Fatalf("%s GOMAXPROCS %d chain %d: two-lane val %v, one-lane %v", name, procs, c, out[c].Val, ref[c].Val)
						}
						for j := range ref[c].Partials {
							if !sameBits(out[c].Partials[j], ref[c].Partials[j]) {
								t.Fatalf("%s GOMAXPROCS %d chain %d partial %d differs between lanes", name, procs, c, j)
							}
						}
					}
				}
			}()
		}
	})
}

// TestBatchEvalNilMask proves batch-composition independence: masking
// chains out of the batch leaves the survivors' bits untouched, which is
// what makes the coalescer's partial batches and quarantine draw-preserving.
func TestBatchEvalNilMask(t *testing.T) {
	glmBatchCases(t, func(name string, bk Batcher, base []float64, rec func(tp *ad.Tape, in []ad.Var) ad.Var) {
		full := batchPoints(base, 6)
		ref := make([]BatchResult, len(full))
		bk.BatchEval(full, ref)
		masked := append([][]float64(nil), full...)
		masked[0], masked[3], masked[5] = nil, nil, nil
		out := make([]BatchResult, len(masked))
		bk.BatchEval(masked, out)
		for c, pk := range masked {
			if pk == nil {
				continue
			}
			if !sameBits(out[c].Val, ref[c].Val) {
				t.Fatalf("%s chain %d: masked val %v full %v", name, c, out[c].Val, ref[c].Val)
			}
			for j := range out[c].Partials {
				if !sameBits(out[c].Partials[j], ref[c].Partials[j]) {
					t.Fatalf("%s chain %d partial %d differs under masking", name, c, j)
				}
			}
		}
	})
}

// TestBatchEvalNonFinite drives NaN, ±Inf, and invalid-sigma parameter
// vectors through the batch path and checks the typed error matches the
// single evaluation's panic field-for-field, while clean chains in the
// same batch are unaffected.
func TestBatchEvalNonFinite(t *testing.T) {
	glmBatchCases(t, func(name string, bk Batcher, base []float64, rec func(tp *ad.Tape, in []ad.Var) ad.Var) {
		pts := batchPoints(base, 5)
		pts[1] = append([]float64(nil), base...)
		pts[1][0] = math.NaN()
		pts[3] = append([]float64(nil), base...)
		pts[3][0] = math.Inf(1)
		if name == "normal_p4" || name == "normal_p2_grouped" || name == "normal_p2_plain" {
			pts[4] = append([]float64(nil), base...)
			pts[4][len(base)-1] = -0.5 // negative sigma: NaN log-density
		}
		checkBatchMatchesSingle(t, name, bk, pts, rec)
	})
}

func TestBatchEvalNormalDeviations(t *testing.T) {
	const n = 64
	kn := NormalDeviationsKernel{Len: n}
	base := make([]float64, n+2)
	for i := 0; i < n; i++ {
		base[i] = 0.3 * float64(i%7-3)
	}
	base[n] = 0.2
	base[n+1] = 1.3
	rec := func(tp *ad.Tape, in []ad.Var) ad.Var {
		return NormalDeviations(tp, in[:n], in[n], in[n+1])
	}
	checkBatchMatchesSingle(t, "normal_deviations", kn, batchPoints(base, 4), rec)

	bad := batchPoints(base, 3)
	bad[1] = append([]float64(nil), base...)
	bad[1][2] = math.NaN()
	bad[2] = append([]float64(nil), base...)
	bad[2][n+1] = -1.0
	checkBatchMatchesSingle(t, "normal_deviations", kn, bad, rec)
}

func TestBatchEvalNormalSuffStats(t *testing.T) {
	y := make([]float64, 400)
	for i := range y {
		y[i] = 0.8*float64(i%9-4) + 0.1
	}
	st := NewNormalSuffStats(y)
	base := []float64{0.15, 1.1}
	rec := func(tp *ad.Tape, in []ad.Var) ad.Var {
		return st.LogLik(tp, in[0], in[1])
	}
	checkBatchMatchesSingle(t, "normal_suffstats", st, batchPoints(base, 4), rec)

	bad := [][]float64{{0.15, -1.0}, nil, {math.NaN(), 1.1}}
	checkBatchMatchesSingle(t, "normal_suffstats", st, bad, rec)
}

// TestBatchLogLikPre replays a batched result through LogLikPre and
// checks the tape gradient is bit-identical to recording LogLik directly,
// and that a stored error re-raises as the single path would have.
func TestBatchLogLikPre(t *testing.T) {
	f := newFixture(2500, 3, 6, 17)
	k := NewNormalIDGLM(f.yReal, f.x, f.p, f.offset, f.group, f.g)
	q := f.point(true)
	dim := k.InputDim()
	out := make([]BatchResult, 2)
	k.BatchEval([][]float64{q, nil}, out)

	tp := ad.NewTape(0)
	in := tp.Input(q)
	lp := k.LogLikPre(tp, in[:f.p], in[f.p:f.p+f.g], in[f.p+f.g], &out[0])
	grad := make([]float64, dim)
	tp.Grad(lp, grad)

	val2, grad2, ferr := singleEval(dim, q, func(tp *ad.Tape, in []ad.Var) ad.Var {
		return k.LogLik(tp, in[:f.p], in[f.p:f.p+f.g], in[f.p+f.g])
	})
	if ferr != nil {
		t.Fatalf("unexpected single-eval error: %v", ferr)
	}
	if !sameBits(lp.Value(), val2) {
		t.Fatalf("LogLikPre val %v want %v", lp.Value(), val2)
	}
	for j := range grad {
		if !sameBits(grad[j], grad2[j]) {
			t.Fatalf("LogLikPre grad %d: %v want %v", j, grad[j], grad2[j])
		}
	}

	// A stored non-finite error must re-raise on injection.
	bad := append([]float64(nil), q...)
	bad[0] = math.NaN()
	k.BatchEval([][]float64{bad}, out[:1])
	if out[0].Err == nil {
		t.Fatal("expected non-finite error")
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("LogLikPre did not re-raise stored error")
			}
		}()
		tp2 := ad.NewTape(0)
		in2 := tp2.Input(bad)
		k.LogLikPre(tp2, in2[:f.p], in2[f.p:f.p+f.g], in2[f.p+f.g], &out[0])
	}()
}

// TestBatchEvalZeroAllocSteadyState: after warmup, the fused sweep
// allocates nothing per call for any kernel, on the kernel or on a fork.
func TestBatchEvalZeroAllocSteadyState(t *testing.T) {
	glmBatchCases(t, func(name string, bk Batcher, base []float64, rec func(tp *ad.Tape, in []ad.Var) ad.Var) {
		params := batchPoints(base, 4)
		out := make([]BatchResult, 4)
		for _, kn := range []Batcher{bk, bk.Fork()} {
			kn.BatchEval(params, out) // warm scratch + result buffers
			if n := testing.AllocsPerRun(20, func() { kn.BatchEval(params, out) }); n != 0 {
				t.Fatalf("%s: BatchEval allocates %v per run", name, n)
			}
		}
	})
}
