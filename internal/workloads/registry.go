// Package workloads implements the ten BayesSuite benchmarks of Table I.
// Each workload couples a generative synthetic dataset (seeded, sized like
// the paper's real data — see DESIGN.md for the substitution log) with a
// Stan-style model: a log posterior over unconstrained parameters recorded
// on the autodiff tape. The registry also carries per-workload metadata
// used by the characterization harness: the original user-chosen iteration
// count the elision mechanism competes against, and the static
// code-footprint/branch profile of the generated model code.
package workloads

import (
	"fmt"
	"sync"

	"bayessuite/internal/dist"
	"bayessuite/internal/model"
)

// Info is the Table I row plus the static characterization metadata.
type Info struct {
	// Name is the workload's BayesSuite name (e.g. "12cities").
	Name string
	// Family is the model family ("Poisson Regression", ...).
	Family string
	// Application is the one-line application description.
	Application string
	// Source names the workload's provenance in the paper.
	Source string
	// Data describes the (synthesized stand-in for the) dataset.
	Data string
	// Iterations is the original user-specified per-chain iteration
	// count — the setting the paper's convergence elision improves on.
	Iterations int
	// Chains is the user-specified chain count (4 throughout, per
	// Brooks et al.).
	Chains int
	// CodeKB estimates the static instruction footprint of the generated
	// model code in KB; the i-cache model uses it. tickets exceeds the
	// 32 KB L1i (paper §VII-B).
	CodeKB float64
	// BranchMPKI is the workload's branch misprediction rate per kilo
	// instruction (paper Fig. 1c: low across the suite).
	BranchMPKI float64
	// BaseIPC is the workload's cache-perfect instruction throughput,
	// calibrated to Fig. 1a (votes highest at ~1.7x butterfly's). The
	// timing model degrades it with simulated miss penalties.
	BaseIPC float64
	// Distributions lists the probability distributions the model block
	// draws on, for the paper's §VII-A accelerator analysis (which finds
	// Gaussian and Cauchy the most popular across the suite and proposes
	// sampling units for them).
	Distributions []string
	// TapeWSSFactor scales the measured autodiff-tape bytes when
	// estimating the working set. It is 1 for every workload except ode:
	// our Go implementation differentiates through the ODE by taping the
	// RK4 steps, whereas Stan integrates a coupled sensitivity system
	// with O(states x params) solver state instead of an O(steps) tape,
	// so ode's working set is scaled down to match that structure.
	TapeWSSFactor float64
}

// TapeFactor returns the effective tape working-set factor (default 1).
func (i Info) TapeFactor() float64 {
	if i.TapeWSSFactor == 0 {
		return 1
	}
	return i.TapeWSSFactor
}

// Workload is a runnable BayesSuite benchmark.
//
// Model is the default (fastest) implementation; for every workload but
// ode it evaluates the likelihood through a fused — and, where the
// likelihood allows, collapsed — analytic kernel in internal/kernels, and
// for ode through a float RK4 solve with a hand-written reverse sweep
// (odeadjoint.go). legacy, when non-nil, is the same model with the
// original node-per-observation tape likelihood.
type Workload struct {
	Info  Info
	Model model.Model

	legacy model.Model
}

// TapeModel returns the legacy node-per-observation tape implementation
// of the workload. The characterization harness measures this path: its
// tape growth is the working-set proxy the paper's LLC analysis is built
// on (§V-A), so hardware simulation must keep seeing Stan-shaped tapes
// even after the sampling path moved to fused kernels. For workloads
// without a kernel rewrite this is Model itself.
func (w *Workload) TapeModel() model.Model {
	if w.legacy != nil {
		return w.legacy
	}
	return w.Model
}

// UsesKernels reports whether Model evaluates its likelihood through the
// fused kernel layer (and therefore differs from TapeModel).
func (w *Workload) UsesKernels() bool { return w.legacy != nil }

// ModeledDataBytes returns the workload's modeled data size — the static
// LLC predictor feature (§V-A).
func (w *Workload) ModeledDataBytes() int {
	if ds, ok := w.Model.(model.DataSized); ok {
		return ds.ModeledDataBytes()
	}
	return 0
}

// Forecaster is implemented by workload models that support
// posterior-predictive forecasting from an unconstrained draw (currently
// votes). series selects the unit (e.g. state); future gives the points
// to predict at on the model's own time scale.
type Forecaster interface {
	ForecastMean(q []float64, series int, future []float64) []float64
}

// Builder constructs one workload at a dataset scale in (0, 1] with a
// deterministic seed.
type Builder func(scale float64, seed uint64) *Workload

// builders maps workload names to constructors, in Table I order.
var builders = []struct {
	name  string
	build Builder
}{
	{"12cities", NewTwelveCities},
	{"ad", NewAd},
	{"ode", NewODE},
	{"memory", NewMemory},
	{"votes", NewVotes},
	{"tickets", NewTickets},
	{"disease", NewDisease},
	{"racial", NewRacial},
	{"butterfly", NewButterfly},
	{"survival", NewSurvival},
}

// The half-Cauchy priors the workloads put on scale parameters, built once
// so that no evaluation recomputes their normalising constants.
var (
	halfCauchy1     = dist.NewHalfCauchy(1)
	halfCauchyHalf  = dist.NewHalfCauchy(0.5)
	halfCauchyFifth = dist.NewHalfCauchy(0.2)
)

// The normal priors with constant mean and scale, built once for the same
// reason: no evaluation takes the log of a constant scale.
var (
	stdNormal       = dist.NewNormal(0, 1)
	normalSD2       = dist.NewNormal(0, 2)
	normalSD2p5     = dist.NewNormal(0, 2.5)
	normalSD1p5     = dist.NewNormal(0, 1.5)
	normalSDHalf    = dist.NewNormal(0, 0.5)
	normalSDTenth   = dist.NewNormal(0, 0.1)
	muMPrior        = dist.NewNormal(6, 1)       // memory's mean log RT
	searchBasePrior = dist.NewNormal(-2.5, 1)    // racial's search-rate base
	muAlphaPrior    = dist.NewNormal(-11, 2)     // 12cities' mean log rate
	rhoPrior        = dist.NewLogNormal(0, 0.75) // votes' GP lengthscale
)

// Names returns the workload names in Table I order.
func Names() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = b.name
	}
	return out
}

// New builds the named workload at the given dataset scale, or an error
// for an unknown name.
func New(name string, scale float64, seed uint64) (*Workload, error) {
	for _, b := range builders {
		if b.name == name {
			return b.build(scale, seed), nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// infoCache memoizes per-workload static metadata for Defaults.
var infoCache sync.Map // name → Info

// Defaults returns the named workload's static registry metadata
// (iteration budget, chain count, family, ...) without synthesizing its
// full dataset: the workload is built once at a small probe scale and the
// Info cached. Only the scale-independent fields are meaningful.
func Defaults(name string) (Info, error) {
	if v, ok := infoCache.Load(name); ok {
		return v.(Info), nil
	}
	w, err := New(name, 0.05, 1)
	if err != nil {
		return Info{}, err
	}
	infoCache.Store(name, w.Info)
	return w.Info, nil
}

// All builds the full suite at the given dataset scale.
func All(scale float64, seed uint64) []*Workload {
	out := make([]*Workload, len(builders))
	for i, b := range builders {
		out[i] = b.build(scale, seed)
	}
	return out
}
