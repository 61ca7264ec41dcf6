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
	runs     map[string]*mcmc.Result // key: workload name
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
		runs: make(map[string]*mcmc.Result),
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

// runChains is the chain count of each workload's one sampler run. Chain c
// draws from its own stream and no stop decision touches a draw, so the
// first c chains of that run are a c-chain run, and a c-chain elision run
// is a prefix of them: every Elision and FullRun is read off this run.
const runChains = 4

// prefixElision is the StopRule of a workload's sampler run: one detector
// per elision chain count c, fed the first c chains at exactly the checks
// a c-chain elision run gets (the runner calls the rule every 50
// iterations from iteration 100) until it fires, when that run would stop. The
// run stops once every detector fired, unless toBudget.
type prefixElision struct {
	dets     map[int]*elide.Detector // key: chain count
	toBudget bool
}

// ShouldStop implements mcmc.StopRule. A quarantined chain stops the run;
// the harness then panics with its fault.
func (p *prefixElision) ShouldStop(chains []*mcmc.Samples, iter int) bool {
	if len(chains) < runChains {
		return true
	}
	all := true
	for c, d := range p.dets {
		if d.Fired == 0 && !d.ShouldStop(chains[:c], iter) {
			all = false
		}
	}
	return all && !p.toBudget
}

// ElisionOutcome is one workload's runtime-convergence-detection result.
type ElisionOutcome struct {
	// StoppedAt is the per-chain iteration count the detector stopped
	// at (the iteration budget when it never fired).
	StoppedAt int
	Fired     bool
}

// Elision returns the workload's convergence-detection outcome at 1, 2 or
// 4 chains, read off its sampler run.
func (h *Harness) Elision(name string, chains int) *ElisionOutcome {
	res := h.run(name, false)
	if at := res.Config.StopRule.(*prefixElision).dets[chains].Fired; at > 0 {
		return &ElisionOutcome{StoppedAt: at, Fired: true}
	}
	return &ElisionOutcome{StoppedAt: res.Config.Iterations}
}

// FullRun returns the workload's run to its full effective iteration
// count at the given chain count: the first chains of its sampler run.
func (h *Harness) FullRun(name string, chains int) *mcmc.Result {
	res := h.run(name, true)
	if chains == runChains {
		return res
	}
	sub := *res
	sub.Chains = res.Chains[:chains]
	sub.Config.Chains = chains
	return &sub
}

// run returns the workload's sampler run (cached). A cached run that
// stopped once every detector fired does not serve toBudget: it is run
// again to the budget, where its detectors fire at the same iterations.
func (h *Harness) run(name string, toBudget bool) *mcmc.Result {
	h.mu.Lock()
	res := h.runs[name]
	h.mu.Unlock()
	if res != nil && (!toBudget || res.Iterations == res.Config.Iterations) {
		return res
	}

	w := h.workload(name)
	iters := h.iters(w)
	h.logf("sampler run %s (chains=%d, max %d iters)...\n", name, runChains, iters)
	res = mcmc.Run(mcmc.Config{
		Chains:     runChains,
		Iterations: iters,
		Seed:       h.opt.Seed + 7,
		StopRule: &prefixElision{toBudget: toBudget, dets: map[int]*elide.Detector{
			1: elide.NewDetector(), 2: elide.NewDetector(), 4: elide.NewDetector(),
		}},
		Parallel: h.opt.Parallel,
	}, func() mcmc.Target { return model.NewEvaluator(w.Model) })
	if f := res.Faults(); len(f) > 0 {
		panic(fmt.Sprintf("bench: %s: %v; every derived run needs %d complete chains", name, f[0], runChains))
	}
	h.mu.Lock()
	h.runs[name] = res
	h.mu.Unlock()
	return res
}

// GroundTruthKL computes the paper's quality metric for a prefix of a
// run: the Gaussian KL divergence between the draws in (iters/2, iters]
// pooled over chains and the reference posterior (second half of the
// full 4-chain run).
func (h *Harness) GroundTruthKL(name string, run *mcmc.Result, iters int) float64 {
	ref := h.FullRun(name, runChains)
	return klAgainst(run, iters, diag.FlattenChains(ref.SecondHalfDraws()))
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
