// Command benchjson measures the fused-kernel gradient path against the
// legacy node-per-observation tape path for every kernel-backed registry
// workload, plus a large-N hierarchical Gaussian GLM that shows the
// asymptotic limit of the kernel layer, and writes the numbers as JSON.
//
// The output is deliberately timestamp-free so regenerating it on the
// same machine produces a reviewable diff of just the numbers.
//
// Usage:
//
//	benchjson [-o BENCH_2.json] [-o5 BENCH_5.json] [-scale 1.0] [-benchtime 1s]
//
// Two files come out: BENCH_2.json (fused kernel vs legacy tape, one
// chain) and BENCH_5.json (cross-chain gradient batching: fused
// multi-chain sweeps vs independent per-chain evaluation, at the
// gradient layer and end to end on the lockstep runner).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"bayessuite/internal/ad"
	"bayessuite/internal/dist"
	"bayessuite/internal/kernels"
	"bayessuite/internal/model"
	"bayessuite/internal/rng"
	"bayessuite/internal/workloads"
)

// entry is one kernel-vs-tape comparison in the emitted JSON.
type entry struct {
	Workload      string  `json:"workload"`
	Dim           int     `json:"dim"`
	KernelNodes   int     `json:"kernel_tape_nodes"`
	KernelEdges   int     `json:"kernel_tape_edges"`
	TapeNodes     int     `json:"tape_nodes"`
	TapeEdges     int     `json:"tape_edges"`
	KernelNsOp    int64   `json:"kernel_ns_op"`
	TapeNsOp      int64   `json:"tape_ns_op"`
	KernelAllocs  int64   `json:"kernel_allocs_op"`
	TapeAllocs    int64   `json:"tape_allocs_op"`
	KernelSpeedup float64 `json:"kernel_speedup"`
}

// env records the machine a kernel-vs-tape report was measured on.
type env struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

type report struct {
	Description string  `json:"description"`
	Env         env     `json:"env"`
	Scale       float64 `json:"scale"`
	Entries     []entry `json:"entries"`
}

// cpuModel is the first "model name" of /proc/cpuinfo, or the architecture
// where there is none to read.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func main() {
	testing.Init() // registers test.* flags so test.benchtime can be set
	out := flag.String("o", "BENCH_2.json", "kernel-vs-tape output path")
	out5 := flag.String("o5", "BENCH_5.json", "cross-chain batching output path")
	lockIters := flag.Int("lockstep-iters", 12, "iterations per end-to-end lockstep run")
	scale := flag.Float64("scale", 1.0, "workload dataset scale")
	benchtime := flag.Duration("benchtime", 0, "per-measurement budget (0 = testing default)")
	flag.Parse()
	if *benchtime > 0 {
		// testing.Benchmark honours the flag, not an API knob.
		if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	rep := report{
		Description: "gradient-evaluation cost: fused analytic kernels vs legacy node-per-observation tape",
		Env: env{
			Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), CPUModel: cpuModel(),
		},
		Scale: *scale,
	}
	for _, w := range workloads.All(*scale, 3) {
		if !w.UsesKernels() {
			continue
		}
		rep.Entries = append(rep.Entries, measure(w.Info.Name, w.Model, w.TapeModel()))
	}
	rep.Entries = append(rep.Entries,
		measure("normal-glm-60k", newNormalGLM(true), newNormalGLM(false)))

	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d entries)\n", *out, len(rep.Entries))

	rep5 := batchReport(*lockIters)
	if err := writeJSON(*out5, rep5); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d gradient-layer entries, %d lockstep entries)\n",
		*out5, len(rep5.GradientLayer), len(rep5.Lockstep))
}

func writeJSON(path string, v any) error {

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return f.Close()
}

// measure times LogDensityGrad on both paths at a fixed off-origin point.
func measure(name string, kernel, tape model.Model) entry {
	e := entry{Workload: name, Dim: kernel.Dim()}
	e.KernelNsOp, e.KernelAllocs, e.KernelNodes, e.KernelEdges = gradBench(kernel)
	e.TapeNsOp, e.TapeAllocs, e.TapeNodes, e.TapeEdges = gradBench(tape)
	if e.KernelNsOp > 0 {
		e.KernelSpeedup = float64(e.TapeNsOp) / float64(e.KernelNsOp)
	}
	return e
}

func gradBench(m model.Model) (nsOp, allocsOp int64, nodes, edges int) {
	ev := model.NewEvaluator(m)
	q := make([]float64, ev.Dim())
	grad := make([]float64, ev.Dim())
	for i := range q {
		q[i] = 0.1 * float64(i%7)
	}
	ev.LogDensityGrad(q, grad) // reach arena high-water marks
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.LogDensityGrad(q, grad)
		}
	})
	return r.NsPerOp(), r.AllocsPerOp(), ev.TapeNodes, ev.TapeEdges
}

// Large-N hierarchical Gaussian GLM (two covariates plus a group
// intercept, n = 60000): no per-observation transcendentals, so the
// taping overhead the kernel removes is the entire per-observation cost.
// Mirrors BenchmarkGradientNormalGLM* in internal/mcmc.
const (
	normalGLMN      = 60000
	normalGLMP      = 2
	normalGLMGroups = 300
)

type normalGLM struct {
	n, p, g int
	y, x    []float64
	group   []int
	kern    *kernels.NormalIDGLM // nil on the tape path
}

func newNormalGLM(kernel bool) *normalGLM {
	return newNormalGLMSized(normalGLMN, kernel)
}

func newNormalGLMSized(n int, kernel bool) *normalGLM {
	r := rng.New(41)
	m := &normalGLM{
		n: n, p: normalGLMP, g: normalGLMGroups,
		y:     make([]float64, n),
		x:     make([]float64, n*normalGLMP),
		group: make([]int, n),
	}
	beta := []float64{0.6, -0.4}
	for i := 0; i < n; i++ {
		eta := 0.0
		for j := 0; j < m.p; j++ {
			v := r.Norm()
			m.x[i*m.p+j] = v
			eta += v * beta[j]
		}
		gi := i % m.g
		m.group[i] = gi
		eta += 0.3 * float64(gi%7-3)
		m.y[i] = eta + 0.8*r.Norm()
	}
	if kernel {
		m.kern = kernels.NewNormalIDGLM(m.y, m.x, m.p, nil, m.group, m.g)
	}
	return m
}

func (m *normalGLM) Name() string { return "normal-glm" }
func (m *normalGLM) Dim() int     { return m.p + m.g + 1 }

func (m *normalGLM) LogPosterior(t *ad.Tape, q []ad.Var) ad.Var {
	return m.logPost(t, q, nil)
}

func (m *normalGLM) logPost(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	b := model.NewBuilder(t)
	beta := q[:m.p]
	u := q[m.p : m.p+m.g]
	sigma := b.Positive(q[m.p+m.g])
	b.Add(dist.NormalLPDFVarData(t, beta, ad.Const(0), ad.Const(5)))
	b.Add(dist.NormalLPDFVarData(t, u, ad.Const(0), ad.Const(1)))
	b.Add(dist.HalfCauchyLPDF(t, sigma, 1))
	switch {
	case pre != nil:
		b.Add(m.kern.LogLikPre(t, beta, u, sigma, &pre[0]))
	case m.kern != nil:
		b.Add(m.kern.LogLik(t, beta, u, sigma))
	default:
		mu := t.ScratchVars(m.n)
		for i := range mu {
			mu[i] = t.Add(t.Dot(beta, m.x[i*m.p:(i+1)*m.p]), u[m.group[i]])
		}
		b.Add(dist.NormalLPDFVec(t, m.y, mu, sigma))
	}
	return b.Result()
}

// BatchKernels/KernelParams/LogPosteriorPre make the kernel-backed form a
// model.BatchableModel for the BENCH_5 cross-chain sweep.
func (m *normalGLM) BatchKernels() []kernels.Batcher {
	if m.kern == nil {
		return nil
	}
	return []kernels.Batcher{m.kern}
}

func (m *normalGLM) KernelParams(q []float64, dst [][]float64) {
	d := dst[0]
	copy(d[:m.p+m.g], q)
	d[m.p+m.g] = math.Exp(q[m.p+m.g]) + 0 // Positive = Lower(q, 0): exp then +0
}

func (m *normalGLM) LogPosteriorPre(t *ad.Tape, q []ad.Var, pre []kernels.BatchResult) ad.Var {
	return m.logPost(t, q, pre)
}
