// Package bayessuite is the public API of BayesSuite-Go, a from-scratch
// Go reproduction of "Demystifying Bayesian Inference Workloads" (ISPASS
// 2019). It bundles:
//
//   - the ten BayesSuite workloads (Table I) with seeded synthetic data;
//   - a Stan-style inference stack: reverse-mode autodiff, constrained
//     parameter transforms, and Metropolis-Hastings / HMC / NUTS samplers;
//   - convergence diagnostics (split R-hat, ESS, Gaussian KL) and the
//     paper's computation-elision mechanism (runtime convergence
//     detection, §VI);
//   - the simulated Skylake/Broadwell hardware substrate (Table II) with
//     a trace-driven LLC model, timing, and energy (§IV-§V);
//   - the static LLC-miss predictor and platform scheduler (§V).
//
// Quick start:
//
//	w, _ := bayessuite.NewWorkload("12cities", 1.0, 7)
//	res := bayessuite.Fit(w.Model, bayessuite.Config{Elide: true})
//	fmt.Println(res.MaxRHat(), res.Iterations)
//
// Custom models implement the Model interface; see examples/quickstart.
package bayessuite

import (
	"io"

	"bayessuite/internal/ad"
	"bayessuite/internal/diag"
	"bayessuite/internal/elide"
	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/perf"
	"bayessuite/internal/sched"
	"bayessuite/internal/serve"
	"bayessuite/internal/stanio"
	"bayessuite/internal/vi"
	"bayessuite/internal/workloads"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public surface without duplicating them.
type (
	// Model is a Bayesian model over an unconstrained parameter vector;
	// see the model package for the Builder transforms used to implement
	// one.
	Model = model.Model
	// Builder accumulates a log posterior with Stan-style constrained
	// parameter transforms.
	Builder = model.Builder
	// Tape is the reverse-mode autodiff tape models record onto.
	Tape = ad.Tape
	// Var is a tape-tracked value.
	Var = ad.Var
	// Workload couples a Table I workload's model, data, and metadata.
	Workload = workloads.Workload
	// WorkloadInfo is the Table I row.
	WorkloadInfo = workloads.Info
	// Summary is one parameter's posterior summary.
	Summary = diag.Summary
	// Platform describes one Table II machine.
	Platform = hw.Platform
	// Metrics is a simulated hardware characterization.
	Metrics = hw.Metrics
	// HWProfile is a measured workload profile for the hardware model.
	HWProfile = hw.Profile
	// Assignment is a scheduling decision.
	Assignment = sched.Assignment
	// Forecaster is implemented by workload models that support
	// posterior-predictive forecasting (currently votes).
	Forecaster = workloads.Forecaster
	// Scheduler places jobs on the Skylake/Broadwell platform pair.
	Scheduler = sched.Scheduler
)

// NewBuilder starts a log-posterior builder over tape t.
func NewBuilder(t *Tape) *Builder { return model.NewBuilder(t) }

// Const wraps a plain float as an untracked autodiff constant.
func Const(v float64) Var { return ad.Const(v) }

// The simulated experiment platforms (Table II).
var (
	Skylake   = hw.Skylake
	Broadwell = hw.Broadwell
)

// WorkloadNames lists the ten BayesSuite workloads in Table I order.
func WorkloadNames() []string { return workloads.Names() }

// NewWorkload builds a named workload with synthetic data at the given
// scale in (0, 1] and seed.
func NewWorkload(name string, scale float64, seed uint64) (*Workload, error) {
	return workloads.New(name, scale, seed)
}

// Suite builds all ten workloads.
func Suite(scale float64, seed uint64) []*Workload {
	return workloads.All(scale, seed)
}

// Sampler selects the inference algorithm.
type Sampler string

// Samplers supported by Fit.
const (
	NUTS               Sampler = "nuts"
	HMC                Sampler = "hmc"
	MetropolisHastings Sampler = "mh"
)

// Config controls Fit. The zero value means: NUTS, 4 chains, 2000
// iterations, no elision.
type Config struct {
	// Chains is the number of Markov chains (default 4).
	Chains int
	// Iterations is the per-chain iteration budget (default 2000).
	Iterations int
	// Sampler selects the algorithm (default NUTS).
	Sampler Sampler
	// Seed drives all randomness (default 7).
	Seed uint64
	// Elide enables runtime convergence detection: sampling stops as
	// soon as split R-hat over the second half of the draws falls below
	// 1.1 (the paper's computation elision).
	Elide bool
	// Parallel runs chains on separate goroutines. With Elide the chains
	// meet every 50 iterations for the convergence check, which needs
	// aligned draws; between checks none waits for another.
	Parallel bool
}

// Result wraps a finished run.
type Result struct {
	*mcmc.Result
	// Detector is non-nil when Elide was set.
	Detector *elide.Detector
}

// Fit runs MCMC on the model.
func Fit(m Model, cfg Config) *Result {
	mc := mcmc.Config{
		Chains:     cfg.Chains,
		Iterations: cfg.Iterations,
		Seed:       cfg.Seed,
		Parallel:   cfg.Parallel,
	}
	if mc.Seed == 0 {
		mc.Seed = 7
	}
	switch cfg.Sampler {
	case HMC:
		mc.Sampler = mcmc.HMC
	case MetropolisHastings:
		mc.Sampler = mcmc.MetropolisHastings
	default:
		mc.Sampler = mcmc.NUTS
	}
	out := &Result{}
	if cfg.Elide {
		out.Detector = elide.NewDetector()
		mc.StopRule = out.Detector
	}
	out.Result = mcmc.Run(mc, func() mcmc.Target { return model.NewEvaluator(m) })
	return out
}

// MaxRHat returns the maximum split R-hat over the second half of the
// draws (the paper's convergence criterion; < 1.1 indicates convergence).
// It reads the flat sample buffers column-wise, with no copying.
func (r *Result) MaxRHat() float64 {
	return diag.MaxSplitRHatCols(r.SecondHalfColumns())
}

// Summaries computes per-parameter posterior summaries from the second
// half of the draws. names may be nil.
func (r *Result) Summaries(names []string) []Summary {
	return diag.Summarize(r.SecondHalfDraws(), names)
}

// Elided reports whether convergence detection stopped the run early,
// and at which iteration.
func (r *Result) Elided() (bool, int) {
	return r.Result.Elided, r.Result.Iterations
}

// WriteDraws writes the post-warmup draws in Stan-style CSV (chain__,
// iter__, then one column per parameter). names may be nil.
func (r *Result) WriteDraws(w io.Writer, names []string) error {
	return stanio.WriteDraws(w, r.SecondHalfDraws(), names)
}

// VIConfig configures a variational fit (see internal/vi).
type VIConfig = vi.Config

// VIResult is a fitted mean-field Gaussian approximation.
type VIResult = vi.Result

// FitVI runs automatic differentiation variational inference (mean-field
// ADVI) on the model — the optimization-based alternative the paper
// contrasts with sampling (§II-B): much cheaper per result, but biased
// (no asymptotic exactness) and without an R-hat-style convergence
// guarantee.
func FitVI(m Model, cfg VIConfig) *VIResult {
	return vi.Fit(model.NewEvaluator(m), cfg)
}

// ProfileWorkload measures a workload's hardware profile with a short
// real sampler run (see internal/perf).
func ProfileWorkload(w *Workload) *HWProfile {
	return perf.Measure(w, perf.Options{})
}

// Characterize runs the simulated hardware model for a profile on a
// platform with the given core count.
func Characterize(p *HWProfile, plat Platform, cores int) Metrics {
	return hw.Characterize(p, plat, cores)
}

// CalibrateScheduler fits the paper's static LLC-miss predictor on the
// suite's simulated 4-core miss rates (the Fig. 3 procedure) and returns
// a ready scheduler over the Skylake/Broadwell pair.
func CalibrateScheduler(seed uint64) (*sched.Scheduler, error) {
	pts, err := serve.SuiteCalibration(seed)
	if err != nil {
		return nil, err
	}
	pred, err := sched.Fit(pts)
	if err != nil {
		return nil, err
	}
	return sched.NewScheduler(pred), nil
}
