// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation from the real Go sampler runs plus the
// simulated hardware model. Each FigN/TableN method returns a typed result
// that render.go can print in the same rows/series the paper reports.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Table I  — workload summary            Table II — platforms
//	Fig. 1   — single-core runtime stats   Fig. 2   — multicore scaling
//	Fig. 3   — LLC miss prediction         Fig. 4   — platform comparison
//	Fig. 5   — convergence of 12cities     Fig. 6   — design-space exploration
//	Fig. 7   — energy savings              Fig. 8   — overall speedup
package bench

import (
	"fmt"
	"sync"

	"bayessuite/internal/diag"
	"bayessuite/internal/elide"
	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/perf"
	"bayessuite/internal/workloads"
)

// Options sizes the harness runs. The defaults reproduce the paper's
// configuration; Fast() shrinks everything for tests and quick looks.
type Options struct {
	// Scale is the dataset scale passed to workload constructors.
	Scale float64
	// IterFraction scales each workload's original iteration count in
	// the real runs (1 = paper-faithful; figures report the scaled
	// counts).
	IterFraction float64
	// ProfileIterations sizes the measurement runs.
	ProfileIterations int
	// Seed drives every run deterministically.
	Seed uint64
	// Parallel runs chains on goroutines where permitted.
	Parallel bool
	// Verbose emits progress lines to Logf.
	Verbose bool
	// Logf receives progress output when Verbose (default: fmt.Printf).
	Logf func(format string, args ...any)
}

// Default returns the paper-faithful options.
func Default() Options {
	return Options{Scale: 1, IterFraction: 1, ProfileIterations: 120, Seed: 20190324, Parallel: true}
}

// Fast returns reduced options for tests and quick looks: full-size
// datasets (the LLC story depends on them) but much shorter runs. Shapes
// survive; convergence-related magnitudes shrink.
func Fast() Options {
	return Options{Scale: 1, IterFraction: 0.75, ProfileIterations: 100, Seed: 20190324, Parallel: true}
}

// Harness caches workloads, profiles, and sampler runs across experiments
// so each expensive run happens once per process.
type Harness struct {
	opt Options

	mu       sync.Mutex
	suite    []*workloads.Workload
	profiles *perf.Cache
	elisions map[string]*ElisionOutcome
	fullRuns map[string]*mcmc.Result // key: name/chains
}

// New builds a harness.
func New(opt Options) *Harness {
	if opt.Scale == 0 {
		opt.Scale = 1
	}
	if opt.IterFraction == 0 {
		opt.IterFraction = 1
	}
	if opt.ProfileIterations == 0 {
		opt.ProfileIterations = 120
	}
	if opt.Logf == nil {
		opt.Logf = func(format string, args ...any) { fmt.Printf(format, args...) }
	}
	return &Harness{
		opt: opt,
		profiles: perf.NewCache(perf.Options{
			ProfileIterations: opt.ProfileIterations,
			Seed:              opt.Seed,
			Parallel:          opt.Parallel,
		}),
		elisions: make(map[string]*ElisionOutcome),
		fullRuns: make(map[string]*mcmc.Result),
	}
}

func (h *Harness) logf(format string, args ...any) {
	if h.opt.Verbose {
		h.opt.Logf(format, args...)
	}
}

// Suite returns the ten workloads at the harness scale (cached).
func (h *Harness) Suite() []*workloads.Workload {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.suite == nil {
		h.suite = workloads.All(h.opt.Scale, h.opt.Seed)
	}
	return h.suite
}

// workload returns the named workload from the cached suite.
func (h *Harness) workload(name string) *workloads.Workload {
	for _, w := range h.Suite() {
		if w.Info.Name == name {
			return w
		}
	}
	panic("bench: unknown workload " + name)
}

// iters returns the effective iteration count for a workload.
func (h *Harness) iters(w *workloads.Workload) int {
	n := int(float64(w.Info.Iterations) * h.opt.IterFraction)
	if n < 60 {
		n = 60
	}
	return n
}

// Profile returns the measured hardware profile for a workload, with
// per-chain work extrapolated to the effective iteration count.
func (h *Harness) Profile(w *workloads.Workload) *hw.Profile {
	h.logf("profiling %s...\n", w.Info.Name)
	p := h.profiles.Profile(w)
	if n := h.iters(w); n != p.Iterations {
		p = p.ScaleIterations(n)
	}
	return p
}

// ElisionOutcome is one workload's runtime-convergence-detection run.
type ElisionOutcome struct {
	Name           string
	UserIterations int
	// StoppedAt is the per-chain iteration count the detector stopped
	// at (== UserIterations when it never fired).
	StoppedAt int
	Fired     bool
	// RHatAtStop is the diagnostic value at the stop check.
	RHatAtStop float64
	Result     *mcmc.Result
	Trace      []elide.CheckPoint
}

// IterationSavings is the fraction of iterations elided.
func (e *ElisionOutcome) IterationSavings() float64 {
	return 1 - float64(e.StoppedAt)/float64(e.UserIterations)
}

// Elision runs (once, cached) the workload with the convergence detector
// at the given chain count.
func (h *Harness) Elision(name string, chains int) *ElisionOutcome {
	key := fmt.Sprintf("%s/%d", name, chains)
	h.mu.Lock()
	if e, ok := h.elisions[key]; ok {
		h.mu.Unlock()
		return e
	}
	h.mu.Unlock()

	w := h.workload(name)
	iters := h.iters(w)
	h.logf("elision run %s (chains=%d, max %d iters)...\n", name, chains, iters)
	det := elide.NewDetector()
	res := mcmc.Run(mcmc.Config{
		Chains:     chains,
		Iterations: iters,
		Seed:       h.opt.Seed + 7,
		StopRule:   det,
		Parallel:   h.opt.Parallel,
	}, func() mcmc.Target { return model.NewEvaluator(w.Model) })

	out := &ElisionOutcome{
		Name:           name,
		UserIterations: iters,
		StoppedAt:      res.Iterations,
		Fired:          res.Elided,
		Result:         res,
		Trace:          det.Trace,
	}
	if n := len(det.Trace); n > 0 {
		out.RHatAtStop = det.Trace[n-1].RHat
	}
	h.mu.Lock()
	h.elisions[key] = out
	h.mu.Unlock()
	return out
}

// FullRun runs (once, cached) the workload to its full effective
// iteration count with the given chain count, no elision.
func (h *Harness) FullRun(name string, chains int) *mcmc.Result {
	key := fmt.Sprintf("%s/%d", name, chains)
	h.mu.Lock()
	if r, ok := h.fullRuns[key]; ok {
		h.mu.Unlock()
		return r
	}
	h.mu.Unlock()

	w := h.workload(name)
	iters := h.iters(w)
	h.logf("full run %s (chains=%d, %d iters)...\n", name, chains, iters)
	res := mcmc.Run(mcmc.Config{
		Chains:     chains,
		Iterations: iters,
		Seed:       h.opt.Seed + 7,
		Parallel:   h.opt.Parallel,
	}, func() mcmc.Target { return model.NewEvaluator(w.Model) })
	h.mu.Lock()
	h.fullRuns[key] = res
	h.mu.Unlock()
	return res
}

// GroundTruthKL computes the paper's quality metric for a prefix of a
// run: the Gaussian KL divergence between the draws in (iters/2, iters]
// pooled over chains and the reference posterior (second half of the
// full 4-chain run).
func (h *Harness) GroundTruthKL(name string, run *mcmc.Result, iters int) float64 {
	ref := h.FullRun(name, 4)
	refDraws := diag.FlattenChains(ref.SecondHalfDraws())
	if iters > run.Iterations {
		iters = run.Iterations
	}
	var cur [][]float64
	for _, ch := range run.Chains {
		end := iters
		if end > ch.Samples.Len() {
			end = ch.Samples.Len()
		}
		cur = append(cur, ch.Samples.RowsRange(end/2, end)...)
	}
	return diag.GaussianKL(cur, refDraws)
}

// StaticMPKI returns the simulated 4-core Skylake LLC MPKI for a
// workload at an arbitrary dataset scale — the Fig. 3 y-axis. Repeated
// calls cost a dataset build; hw memoises the simulation.
func (h *Harness) StaticMPKI(name string, scale float64) (mpki float64, modeledKB float64) {
	w, err := workloads.New(name, scale*h.opt.Scale, h.opt.Seed)
	if err != nil {
		panic(err)
	}
	return hw.SimulateLLC(perf.Static(w), hw.Skylake, 4), float64(w.ModeledDataBytes()) / 1024
}
