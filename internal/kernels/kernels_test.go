package kernels

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"bayessuite/internal/ad"
	"bayessuite/internal/dist"
	"bayessuite/internal/rng"
)

// glmFixture synthesizes a GLM dataset large enough to span several
// shards, with offset and group structure exercised.
type glmFixture struct {
	n, p, g  int
	x        []float64
	offset   []float64
	group    []int
	etaTrue  []float64
	yBin     []int
	yCount   []int
	yReal    []float64
	betaVals []float64
	uVals    []float64
	sigma    float64
}

func newFixture(n, p, g int, seed uint64) *glmFixture {
	r := rng.New(seed)
	f := &glmFixture{n: n, p: p, g: g, sigma: 0.8}
	f.x = make([]float64, n*p)
	for i := range f.x {
		f.x[i] = r.Norm()
	}
	f.offset = make([]float64, n)
	f.group = make([]int, n)
	f.betaVals = make([]float64, p)
	for j := range f.betaVals {
		f.betaVals[j] = 0.4 * r.Norm()
	}
	f.uVals = make([]float64, g)
	for j := range f.uVals {
		f.uVals[j] = 0.5 * r.Norm()
	}
	f.etaTrue = make([]float64, n)
	f.yBin = make([]int, n)
	f.yCount = make([]int, n)
	f.yReal = make([]float64, n)
	for i := 0; i < n; i++ {
		f.offset[i] = 0.2 * r.Norm()
		f.group[i] = r.Intn(g)
		eta := f.offset[i] + f.uVals[f.group[i]]
		for j := 0; j < p; j++ {
			eta += f.x[i*p+j] * f.betaVals[j]
		}
		f.etaTrue[i] = eta
		if r.Float64() < 1/(1+math.Exp(-eta)) {
			f.yBin[i] = 1
		}
		f.yCount[i] = r.Poisson(math.Exp(0.3 * eta))
		f.yReal[i] = eta + f.sigma*r.Norm()
	}
	return f
}

// point is the flat unconstrained input vector [beta..., u..., sigma?].
func (f *glmFixture) point(withSigma bool) []float64 {
	q := append([]float64(nil), f.betaVals...)
	q = append(q, f.uVals...)
	if withSigma {
		q = append(q, f.sigma)
	}
	return q
}

// evalKernel runs one kernel evaluation at q and returns value + gradient.
func evalKernel(dim int, q []float64, rec func(t *ad.Tape, in []ad.Var) ad.Var) (float64, []float64) {
	t := ad.NewTape(0)
	in := t.Input(q[:dim])
	out := rec(t, in)
	grad := make([]float64, dim)
	t.Grad(out, grad)
	return out.Value(), grad
}

// tapeReference records the same likelihood through the generic dist
// recorders: per-observation eta nodes + the fused *Sum node.
func tapeEta(t *ad.Tape, f *glmFixture, beta, u []ad.Var) []ad.Var {
	eta := make([]ad.Var, f.n)
	for i := 0; i < f.n; i++ {
		e := t.AddConst(t.Dot(beta, f.x[i*f.p:(i+1)*f.p]), f.offset[i])
		eta[i] = t.Add(e, u[f.group[i]])
	}
	return eta
}

func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		d := math.Abs(a[i]-b[i]) / (1 + math.Abs(a[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

func TestBernoulliLogitGLMMatchesTape(t *testing.T) {
	f := newFixture(3000, 4, 7, 11)
	k := NewBernoulliLogitGLM(f.yBin, f.x, f.p, f.offset, f.group, f.g)
	dim := f.p + f.g
	q := f.point(false)

	kv, kg := evalKernel(dim, q, func(tp *ad.Tape, in []ad.Var) ad.Var {
		return k.LogLik(tp, in[:f.p], in[f.p:])
	})
	tv, tg := evalKernel(dim, q, func(tp *ad.Tape, in []ad.Var) ad.Var {
		return dist.BernoulliLogitLPMFSum(tp, f.yBin, tapeEta(tp, f, in[:f.p], in[f.p:]))
	})
	if d := math.Abs(kv-tv) / (1 + math.Abs(tv)); d > 1e-8 {
		t.Errorf("logp: kernel %.12g vs tape %.12g (rel %.3g)", kv, tv, d)
	}
	if d := maxRelDiff(kg, tg); d > 1e-8 {
		t.Errorf("gradient max rel diff %.3g", d)
	}
}

func TestPoissonLogGLMMatchesTape(t *testing.T) {
	f := newFixture(2500, 3, 5, 13)
	k := NewPoissonLogGLM(f.yCount, f.x, f.p, f.offset, f.group, f.g)
	dim := f.p + f.g
	q := f.point(false)

	kv, kg := evalKernel(dim, q, func(tp *ad.Tape, in []ad.Var) ad.Var {
		return k.LogLik(tp, in[:f.p], in[f.p:])
	})
	tv, tg := evalKernel(dim, q, func(tp *ad.Tape, in []ad.Var) ad.Var {
		return dist.PoissonLogLPMFSum(tp, f.yCount, dist.LogFactorials(f.yCount), tapeEta(tp, f, in[:f.p], in[f.p:]))
	})
	if d := math.Abs(kv-tv) / (1 + math.Abs(tv)); d > 1e-8 {
		t.Errorf("logp: kernel %.12g vs tape %.12g (rel %.3g)", kv, tv, d)
	}
	if d := maxRelDiff(kg, tg); d > 1e-8 {
		t.Errorf("gradient max rel diff %.3g", d)
	}
}

func TestNormalIDGLMMatchesTape(t *testing.T) {
	f := newFixture(2200, 3, 6, 17)
	k := NewNormalIDGLM(f.yReal, f.x, f.p, f.offset, f.group, f.g)
	dim := f.p + f.g + 1
	q := f.point(true)

	kv, kg := evalKernel(dim, q, func(tp *ad.Tape, in []ad.Var) ad.Var {
		return k.LogLik(tp, in[:f.p], in[f.p:f.p+f.g], in[f.p+f.g])
	})
	tv, tg := evalKernel(dim, q, func(tp *ad.Tape, in []ad.Var) ad.Var {
		return dist.NormalLPDFVec(tp, f.yReal, tapeEta(tp, f, in[:f.p], in[f.p:f.p+f.g]), in[f.p+f.g])
	})
	if d := math.Abs(kv-tv) / (1 + math.Abs(tv)); d > 1e-8 {
		t.Errorf("logp: kernel %.12g vs tape %.12g (rel %.3g)", kv, tv, d)
	}
	if d := maxRelDiff(kg, tg); d > 1e-8 {
		t.Errorf("gradient max rel diff %.3g", d)
	}
}

// TestGLMFiniteDifferences validates kernel gradients directly against
// central finite differences, independent of the tape reference.
func TestGLMFiniteDifferences(t *testing.T) {
	f := newFixture(600, 3, 4, 23)
	k := NewBernoulliLogitGLM(f.yBin, f.x, f.p, f.offset, f.group, f.g)
	dim := f.p + f.g
	q := f.point(false)
	rec := func(tp *ad.Tape, in []ad.Var) ad.Var {
		return k.LogLik(tp, in[:f.p], in[f.p:])
	}
	_, grad := evalKernel(dim, q, rec)
	const h = 1e-6
	for i := 0; i < dim; i++ {
		qp := append([]float64(nil), q...)
		qm := append([]float64(nil), q...)
		qp[i] += h
		qm[i] -= h
		vp, _ := evalKernel(dim, qp, rec)
		vm, _ := evalKernel(dim, qm, rec)
		fd := (vp - vm) / (2 * h)
		if d := math.Abs(fd-grad[i]) / (1 + math.Abs(fd)); d > 1e-5 {
			t.Errorf("param %d: ad %.8g vs fd %.8g", i, grad[i], fd)
		}
	}
}

// TestNormalDeviationsMatchesVarData requires bitwise agreement with the
// dist recorder it replaces: both must accumulate in the same order.
func TestNormalDeviationsMatchesVarData(t *testing.T) {
	r := rng.New(31)
	n := 300
	q := make([]float64, n+2)
	for i := 0; i < n; i++ {
		q[i] = r.Norm()
	}
	q[n] = 0.3   // mu
	q[n+1] = 1.7 // sigma

	rec := func(useKernel bool) (float64, []float64) {
		tp := ad.NewTape(0)
		in := tp.Input(q)
		var out ad.Var
		if useKernel {
			out = NormalDeviations(tp, in[:n], in[n], in[n+1])
		} else {
			out = dist.NormalLPDFVarData(tp, in[:n], in[n], in[n+1])
		}
		grad := make([]float64, len(q))
		tp.Grad(out, grad)
		return out.Value(), grad
	}
	kv, kg := rec(true)
	tv, tg := rec(false)
	if kv != tv {
		t.Errorf("value not bitwise equal: %.17g vs %.17g", kv, tv)
	}
	for i := range kg {
		if kg[i] != tg[i] {
			t.Errorf("grad[%d] not bitwise equal: %.17g vs %.17g", i, kg[i], tg[i])
		}
	}
}

// TestParallelismDeterminism is the acceptance check that a result's bits
// depend on the parameter vector alone: at any GOMAXPROCS, with any number
// of evaluations sweeping the same kernel side by side on tapes of their
// own, every one is bitwise identical to the lone evaluation.
func TestParallelismDeterminism(t *testing.T) {
	f := newFixture(5000, 5, 9, 41)
	k := NewNormalIDGLM(f.yReal, f.x, f.p, f.offset, f.group, f.g)
	dim := f.p + f.g + 1
	q := f.point(true)
	rec := func(tp *ad.Tape, in []ad.Var) ad.Var {
		return k.LogLik(tp, in[:f.p], in[f.p:f.p+f.g], in[f.p+f.g])
	}

	v1, g1 := evalKernel(dim, q, rec)
	for _, procs := range []int{1, 2, 3, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const evals = 4
			vs := make([]float64, evals)
			gs := make([][]float64, evals)
			var wg sync.WaitGroup
			for e := 0; e < evals; e++ {
				wg.Add(1)
				go func(e int) {
					defer wg.Done()
					vs[e], gs[e] = evalKernel(dim, q, rec)
				}(e)
			}
			wg.Wait()
			for e := 0; e < evals; e++ {
				if vs[e] != v1 {
					t.Errorf("GOMAXPROCS %d eval %d: logp %.17g != lone %.17g", procs, e, vs[e], v1)
				}
				for i := range gs[e] {
					if gs[e][i] != g1[i] {
						t.Errorf("GOMAXPROCS %d eval %d: grad[%d] %.17g != %.17g", procs, e, i, gs[e][i], g1[i])
					}
				}
			}
		}()
	}
}

// TestShardGeometry checks the shard ranges partition [0, n) exactly.
func TestShardGeometry(t *testing.T) {
	for _, n := range []int{1, 2, shardTarget - 1, shardTarget, shardTarget + 1, 5000, 200000} {
		ns := shardCount(n)
		if ns < 1 || ns > maxShards {
			t.Fatalf("n=%d: shardCount %d out of bounds", n, ns)
		}
		covered := 0
		prevHi := 0
		for s := 0; s < ns; s++ {
			lo, hi := shardRange(n, ns, s)
			if lo != prevHi {
				t.Fatalf("n=%d shard %d: lo %d != previous hi %d", n, s, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != n || prevHi != n {
			t.Fatalf("n=%d: shards cover %d obs ending at %d", n, covered, prevHi)
		}
	}
}

// TestKernelZeroAllocSteadyState: the default sequential path must not
// allocate once the tape arenas are warm.
func TestKernelZeroAllocSteadyState(t *testing.T) {
	f := newFixture(3000, 4, 7, 47)
	k := NewBernoulliLogitGLM(f.yBin, f.x, f.p, f.offset, f.group, f.g)
	dim := f.p + f.g
	q := f.point(false)
	tp := ad.NewTape(0)
	in := make([]ad.Var, dim)
	grad := make([]float64, dim)
	eval := func() {
		tp.Reset()
		tp.InputInto(q, in)
		out := k.LogLik(tp, in[:f.p], in[f.p:])
		tp.Grad(out, grad)
	}
	for i := 0; i < 5; i++ {
		eval()
	}
	if avg := testing.AllocsPerRun(100, eval); avg != 0 {
		t.Errorf("sequential kernel path allocates %.1f per evaluation, want 0", avg)
	}
}

func TestValidationPanics(t *testing.T) {
	cases := []func(){
		func() { NewBernoulliLogitGLM([]int{0, 1}, []float64{1}, 1, nil, nil, 0) },    // bad x len
		func() { NewBernoulliLogitGLM([]int{0, 2}, []float64{1, 1}, 1, nil, nil, 0) }, // y not 0/1
		func() { NewPoissonLogGLM([]int{-1}, []float64{1}, 1, nil, nil, 0) },          // negative count
		func() { NewNormalIDGLM([]float64{1}, nil, 0, []float64{1, 2}, nil, 0) },      // offset len
		func() { NewNormalIDGLM([]float64{1}, nil, 0, nil, []int{3}, 2) },             // group out of range
		func() { NewNormalIDGLM([]float64{1}, nil, 0, nil, nil, 2) },                  // nGroups w/o group
		func() { newFixture(10, 2, 2, 1).check(3, 2) },                                // beta len
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func (f *glmFixture) check(nb, nu int) {
	k := NewBernoulliLogitGLM(f.yBin, f.x, f.p, f.offset, f.group, f.g)
	tp := ad.NewTape(0)
	in := tp.Input(f.point(false))
	k.LogLik(tp, in[:nb], in[nb:nb+nu])
}
