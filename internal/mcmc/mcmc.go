// Package mcmc implements the sampling algorithms of the paper: the
// Metropolis-Hastings baseline (Algorithm 1), static-path Hamiltonian
// Monte Carlo, and the No-U-Turn Sampler (NUTS, Hoffman & Gelman 2014) —
// the algorithm Stan runs and the one all BayesSuite characterization is
// based on. A multi-chain runner executes independent chains (the paper's
// chain-level parallelism, Algorithm 1 line 1) and accounts per-iteration
// work in gradient evaluations, which the hardware model converts to
// instructions.
package mcmc

import (
	"fmt"
	"math"

	"bayessuite/internal/rng"
)

// Target is the density a sampler explores: an unnormalized log posterior
// over an unconstrained parameter vector. model.Evaluator satisfies it.
type Target interface {
	Dim() int
	LogDensityGrad(q, grad []float64) float64
	LogDensity(q []float64) float64
}

// SamplerKind selects the sampling algorithm.
type SamplerKind int

const (
	// NUTS is the No-U-Turn Sampler — the paper's subject algorithm.
	NUTS SamplerKind = iota
	// HMC is static-path Hamiltonian Monte Carlo (§IV-A's comparison).
	HMC
	// MetropolisHastings is the paper's Algorithm 1 — the naive baseline.
	MetropolisHastings
)

// ParseSampler returns the SamplerKind named by s: "nuts", "hmc", or
// "mh" (the String forms).
func ParseSampler(s string) (SamplerKind, error) {
	switch s {
	case "nuts":
		return NUTS, nil
	case "hmc":
		return HMC, nil
	case "mh":
		return MetropolisHastings, nil
	}
	return 0, fmt.Errorf("mcmc: unknown sampler %q (want nuts, hmc, or mh)", s)
}

// String returns the sampler name.
func (k SamplerKind) String() string {
	switch k {
	case NUTS:
		return "nuts"
	case HMC:
		return "hmc"
	case MetropolisHastings:
		return "mh"
	}
	return fmt.Sprintf("SamplerKind(%d)", int(k))
}

// Sampler tuning shared by every run, Stan's defaults where Stan has one.
const (
	targetAccept = 0.8 // dual-averaging target acceptance statistic (HMC, NUTS)
	maxDepth     = 10  // bound on the NUTS doubling depth
	mhScale      = 0.5 // Metropolis proposal scale before adaptation
	initRadius   = 2   // initial points are uniform(-r, r) per unconstrained dimension
)

// Config controls a multi-chain run. Zero values take the documented
// defaults, chosen to match the paper's setup (4 chains, Stan-like NUTS).
type Config struct {
	// Chains is the number of Markov chains (default 4, per Brooks et al.
	// as cited in the paper §VI-A).
	Chains int
	// Iterations is the per-chain iteration budget (warmup included).
	Iterations int
	// WarmupFrac is the fraction of Iterations used for adaptation
	// (default 0.5, Stan's convention).
	WarmupFrac float64
	// Sampler selects the algorithm (default NUTS).
	Sampler SamplerKind
	// Seed seeds chain RNG streams deterministically.
	Seed uint64
	// IntTime is the HMC integration time (default 1.0).
	IntTime float64
	// Parallel runs chains on separate goroutines (the paper's multicore
	// execution mode). The chains meet only at segment ends, where the
	// runner checkpoints or consults the StopRule; between them no chain
	// waits for another.
	Parallel bool
	// StopRule, when non-nil, is consulted every CheckInterval iterations
	// with the draws so far; returning true terminates all chains (the
	// paper's computation elision, §VI).
	StopRule StopRule
	// CheckInterval is how often (in iterations) StopRule runs
	// (default 50). It also spaces the segment ends of a run whose context
	// can be canceled, bounding the extra work a cancel costs.
	CheckInterval int
	// Progress, when non-nil, is called with k once for each k, in order,
	// as soon as every live chain holds k draws. The chain that completes
	// k makes the call, under a lock, so calls never overlap; it must be
	// cheap, as it sits on the sampling critical path. It does not change
	// how the run executes.
	Progress func(completed int)
	// MinIterations is the floor before StopRule may fire (default 100).
	MinIterations int
	// DisableMassAdaptation keeps the unit diagonal metric throughout
	// warmup (the mass-matrix ablation in DESIGN.md).
	DisableMassAdaptation bool

	// CheckpointEvery, when positive, ends a segment every N completed
	// iterations, where the chains meet and the run is snapshotted into a
	// Checkpoint for CheckpointSink. Checkpointing stops once any chain is
	// quarantined: the last checkpoint is the most recent all-healthy
	// state, which is what a retry wants to resume.
	CheckpointEvery int
	// CheckpointSink receives each checkpoint; without it none is
	// captured. It is called by the runner between segments (never
	// concurrently) and must not retain the run's internal buffers — the
	// Checkpoint it receives is self-contained copies.
	CheckpointSink func(*Checkpoint)
	// ResumeFrom, when non-nil, resumes the run from a checkpoint instead
	// of initializing fresh chains. The resumed run is bit-identical,
	// draw for draw, to the uninterrupted run the checkpoint came from.
	// The checkpoint must Validate against this Config and the target
	// dimension; RunContext panics on a mismatch (resuming an
	// incompatible snapshot would silently produce garbage).
	ResumeFrom *Checkpoint
	// MaxConsecutiveDivergences, when positive, quarantines a chain as a
	// divergence storm once it records that many divergent iterations in
	// a row (0 disables the check).
	MaxConsecutiveDivergences int
	// FaultHook, when non-nil, is called at the top of every chain
	// iteration with (chain, iter). It may panic (exercising panic
	// isolation), sleep (slow-iteration injection), trip external state
	// (e.g. a context cancel), or return FaultActNonFinite to poison the
	// iteration's log density. Production runs leave it nil — the cost is
	// one nil check per iteration; internal/fault provides deterministic
	// seed-driven implementations for the fault-matrix tests.
	FaultHook func(chain, iter int) FaultAction

	// BatchGrad, when non-nil, enables cross-chain gradient batching on a
	// parallel run of more than one chain at GOMAXPROCS 1: gradient
	// requests from the chain goroutines rendezvous within each segment
	// and leave as one fused data sweep once every chain still stepping
	// has one pending. At GOMAXPROCS 2 or more it is ignored and the
	// chains run free on their own targets: served glm-sweep jobs on a
	// 2-core Xeon made 1.3× more gradients per second without the
	// rendezvous than with it. The function receives qs/grads with nil entries for
	// chains not in the batch and must write lps[c] and grads[c] for
	// every non-nil c, leave the other entries alone, and produce results
	// bit-identical to per-chain evaluation for any batch composition, so
	// the draws are the same at every GOMAXPROCS. Calls never overlap —
	// model.BatchEvaluator.LogDensityGradBatch satisfies this contract. A
	// request that ends up alone in its batch is evaluated by the chain's
	// own Target instead. Ignored on sequential runs, where there is
	// nothing to coalesce. bayesd leaves it nil: served chains run free at
	// every GOMAXPROCS (DESIGN.md, "One gradient path for served jobs").
	BatchGrad func(qs, grads [][]float64, lps []float64)
}

// StopRule decides whether sampling has converged. chains[c] is chain c's
// draw store (column-major; see Samples); iter is the number of completed
// iterations, and each store holds at least iter draws when the rule runs.
// Implementations that keep incremental state may assume iter is
// non-decreasing across calls within one run.
type StopRule interface {
	ShouldStop(chains []*Samples, iter int) bool
}

// withDefaults returns a copy of c with defaults filled in.
func (c Config) withDefaults() Config {
	if c.Chains == 0 {
		c.Chains = 4
	}
	if c.Iterations == 0 {
		c.Iterations = 2000
	}
	if c.WarmupFrac == 0 {
		c.WarmupFrac = 0.5
	}
	if c.IntTime == 0 {
		c.IntTime = 1.0
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = 50
	}
	if c.MinIterations == 0 {
		c.MinIterations = 100
	}
	return c
}

// ChainResult holds everything one chain produced.
type ChainResult struct {
	// Samples holds every iteration's unconstrained draw (warmup included;
	// diagnostics discard the first half, matching the paper) in a flat,
	// column-major store preallocated to the iteration budget.
	Samples *Samples
	// LogDensity holds the log density of each draw.
	LogDensity []float64
	// Work holds gradient evaluations per iteration (leapfrog steps for
	// HMC/NUTS; density evaluations for MH). This is the work-unit stream
	// the hardware model consumes, and its per-chain imbalance produces
	// the paper's slowest-chain effect (§VI-A).
	Work []int64
	// Divergences counts divergent NUTS trajectories.
	Divergences int
	// StepSize is the adapted leapfrog step size after warmup.
	StepSize float64
	// AcceptRate is the mean acceptance statistic over all executed
	// iterations.
	AcceptRate float64
	// InitFallback reports that no finite-density starting point was found
	// within the initialization attempt budget and the chain started from
	// the origin instead.
	InitFallback bool
	// Fault, when non-nil, records that the chain was quarantined: it
	// stopped advancing at Fault.Iteration while the surviving chains
	// finished. The draws up to that point are retained and clean.
	Fault *ChainFault
}

// Draws materializes the chain's draws in the legacy row-major shape
// (draw i, parameter d). It copies; hot paths should use Samples directly.
func (c *ChainResult) Draws() [][]float64 { return c.Samples.Rows() }

// TotalWork sums the chain's work units.
func (c *ChainResult) TotalWork() int64 {
	var s int64
	for _, w := range c.Work {
		s += w
	}
	return s
}

// Result is the outcome of a multi-chain run.
type Result struct {
	Chains []*ChainResult
	// Iterations is the per-chain iteration count actually executed
	// (smaller than Config.Iterations when elision fired).
	Iterations int
	// Elided reports whether the StopRule terminated the run early.
	Elided bool
	// Interrupted reports that the run's context was canceled (or timed
	// out) before the budget was exhausted and before any StopRule fired.
	// The draws completed up to that point are retained rather than
	// discarded: every surviving chain holds exactly Iterations draws, at
	// least as many as it had when the cancel tripped.
	Interrupted bool
	// Config echoes the effective configuration.
	Config Config
}

// Faults returns the fault records of every quarantined chain, in chain
// order (empty when the run was fault-free).
func (r *Result) Faults() []ChainFault {
	var out []ChainFault
	for _, c := range r.Chains {
		if c.Fault != nil {
			out = append(out, *c.Fault)
		}
	}
	return out
}

// HealthyChains returns the chains that were not quarantined. Diagnostics
// and posterior summaries should run over these: a faulted chain's draw
// prefix is clean but shorter than Iterations, so mixing it in would make
// the draw windows ragged.
func (r *Result) HealthyChains() []*ChainResult {
	out := make([]*ChainResult, 0, len(r.Chains))
	for _, c := range r.Chains {
		if c.Fault == nil {
			out = append(out, c)
		}
	}
	return out
}

// SecondHalfHealthyDraws is SecondHalfDraws restricted to the chains that
// were not quarantined — the rectangular draw set inference should use
// after a partial fault.
func (r *Result) SecondHalfHealthyDraws() [][][]float64 {
	healthy := r.HealthyChains()
	out := make([][][]float64, len(healthy))
	for i, c := range healthy {
		n := r.Iterations
		if cn := c.Samples.Len(); cn < n {
			n = cn
		}
		out[i] = c.Samples.RowsRange(n/2, n)
	}
	return out
}

// Draws returns draws[c][i] for all chains, truncated to the executed
// iteration count. It materializes row-major copies from the flat stores;
// diagnostics on hot paths should use Columns or SecondHalfColumns.
func (r *Result) Draws() [][][]float64 {
	out := make([][][]float64, len(r.Chains))
	for i, c := range r.Chains {
		out[i] = c.Samples.Rows()
	}
	return out
}

// SecondHalfDraws returns, flattened per chain, the second half of each
// chain's draws — the portion the paper uses for inference (§VI-A). The
// window is the aligned prefix [Iterations/2, Iterations), clipped to a
// quarantined chain's shorter prefix.
func (r *Result) SecondHalfDraws() [][][]float64 {
	out := make([][][]float64, len(r.Chains))
	for i, c := range r.Chains {
		n := r.Iterations
		if cn := c.Samples.Len(); cn < n {
			n = cn
		}
		out[i] = c.Samples.RowsRange(n/2, n)
	}
	return out
}

// Columns returns zero-copy per-chain column views: Columns()[c][d][i] is
// parameter d of draw i in chain c.
func (r *Result) Columns() [][][]float64 {
	out := make([][][]float64, len(r.Chains))
	for i, c := range r.Chains {
		out[i] = c.Samples.Columns()
	}
	return out
}

// SecondHalfColumns returns zero-copy column views over the second half of
// each chain's draws: out[c][d] is parameter d's post-warmup series.
func (r *Result) SecondHalfColumns() [][][]float64 {
	out := make([][][]float64, len(r.Chains))
	for i, c := range r.Chains {
		n := r.Iterations
		if cn := c.Samples.Len(); cn < n {
			n = cn
		}
		cols := make([][]float64, c.Samples.Dim())
		for d := range cols {
			cols[d] = c.Samples.ColRange(d, n/2, n)
		}
		out[i] = cols
	}
	return out
}

// TotalWork sums work units across chains.
func (r *Result) TotalWork() int64 {
	var s int64
	for _, c := range r.Chains {
		s += c.TotalWork()
	}
	return s
}

// MaxChainWork returns the largest per-chain total work — the multicore
// critical path (the paper's "latency constrained by the slowest chain").
func (r *Result) MaxChainWork() int64 {
	var m int64
	for _, c := range r.Chains {
		if w := c.TotalWork(); w > m {
			m = w
		}
	}
	return m
}

// MinChainWork returns the smallest per-chain total work.
func (r *Result) MinChainWork() int64 {
	m := int64(math.MaxInt64)
	for _, c := range r.Chains {
		if w := c.TotalWork(); w < m {
			m = w
		}
	}
	if m == math.MaxInt64 {
		return 0
	}
	return m
}

// stepper is the internal single-chain sampler interface. Step advances
// one iteration in place and returns the iteration's work units.
type stepper interface {
	// Init sets the starting point.
	Init(q []float64)
	// Step performs one transition; returns the new draw's log density
	// and the work spent.
	Step() (lp float64, work int64)
	// Current returns the current position (borrowed; callers copy).
	Current() []float64
	// EndWarmup freezes adaptation.
	EndWarmup()
	// AcceptStat returns the last acceptance statistic in [0, 1].
	AcceptStat() float64
	// StepSize returns the current step/proposal scale.
	StepSize() float64
	// Divergent reports whether the last step diverged.
	Divergent() bool
	// snapshot writes the sampler's complete adaptive state into dst
	// (checkpointing; called between iterations only).
	snapshot(dst *SamplerState)
	// restore rebuilds the sampler from a snapshot, replacing Init: it
	// consumes no randomness and leaves the sampler bit-identical to the
	// one the snapshot was taken from.
	restore(src *SamplerState)
}

// newStepper builds the configured sampler for one chain.
func newStepper(cfg Config, target Target, r *rng.RNG, warmup int) stepper {
	switch cfg.Sampler {
	case MetropolisHastings:
		return newMHSampler(target, r, warmup)
	case HMC:
		return newHMCSampler(target, r, cfg.IntTime, warmup)
	default:
		ns := newNUTSSampler(target, r, warmup)
		ns.noMass = cfg.DisableMassAdaptation
		return ns
	}
}
