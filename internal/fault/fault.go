// Package fault is the deterministic fault-injection harness for the
// sampling engine's robustness machinery. An Injector implements
// mcmc.Config.FaultHook: it decides, per (chain, iteration), whether to
// panic inside the chain worker, poison the iteration's log density,
// stall the iteration, or trip an external cancel — either at exact
// scheduled points or probabilistically from a seeded per-chain RNG
// stream, so a given seed always injects the same faults at the same
// places regardless of goroutine scheduling. The fault-matrix tests run
// every sampler against every fault kind through this package; production
// code never imports it.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bayessuite/internal/mcmc"
	"bayessuite/internal/rng"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Panic makes the hook panic, exercising the runner's per-iteration
	// recover and quarantine path.
	Panic Kind = iota + 1
	// NonFinite poisons the iteration's log density with NaN, exercising
	// numerical quarantine.
	NonFinite
	// Slow stalls the iteration for the configured duration, exercising
	// straggler behavior (the other chains run on; they wait for it only
	// at the next segment end).
	Slow
	// Cancel invokes the configured cancel function (typically a
	// context.CancelFunc), exercising cooperative interruption.
	Cancel
	// WorkerLoss invokes the configured worker-kill function (at most
	// once), simulating the abrupt death of the cluster worker hosting the
	// run — heartbeats stop, the coordinator reaps the lease, and the job
	// must migrate to another worker from its last uploaded checkpoint.
	WorkerLoss
	// NetDrop is a network fault (see NetChaos): an RPC is lost — either
	// the request never reaches the coordinator, or it is processed and
	// the response is lost on the way back (the case that demands
	// idempotent uploads).
	NetDrop
	// NetDup delivers an RPC twice: the coordinator processes the same
	// request a second time before the caller sees one response,
	// exercising sequence-number deduplication.
	NetDup
	// NetDelay stalls an RPC in flight, reordering it against later
	// calls and exercising per-call deadlines and stale-delivery checks.
	NetDelay
	// NetPartition fails every RPC while the partition is up: the worker
	// is unreachable, heartbeats stop arriving, and the coordinator must
	// reap and re-lease; on heal, the worker's stale in-flight work must
	// be reconciled without corrupting the job.
	NetPartition
)

// String returns the kind's test-matrix label.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case NonFinite:
		return "non-finite"
	case Slow:
		return "slow"
	case Cancel:
		return "cancel"
	case WorkerLoss:
		return "worker-loss"
	case NetDrop:
		return "net-drop"
	case NetDup:
		return "net-dup"
	case NetDelay:
		return "net-delay"
	case NetPartition:
		return "net-partition"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// point is an exact (chain, iteration) injection site.
type point struct{ chain, iter int }

// Injector is a deterministic mcmc.Config.FaultHook. Configure it before
// the run (Schedule/WithRandom/WithSlow/WithCancel); during the run it is
// read-only apart from its atomic counters and per-chain RNG streams, so
// concurrent chains are race-free.
type Injector struct {
	seed     uint64
	plan     map[point]Kind
	rate     float64
	randKind Kind
	streams  []*rng.RNG // per-chain streams for probabilistic injection
	slowFor  time.Duration
	cancel   func()
	kill     func()
	once     sync.Once
	killOnce sync.Once

	injected atomic.Int64
	fired    [NetPartition + 1]atomic.Int64 // indexed by Kind
}

// New returns an Injector whose probabilistic decisions derive from seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, plan: make(map[point]Kind)}
}

// Schedule arms an exact injection: fault kind k fires when chain reaches
// iteration iter. Returns the Injector for chaining.
func (in *Injector) Schedule(chain, iter int, k Kind) *Injector {
	in.plan[point{chain, iter}] = k
	return in
}

// WithRandom arms probabilistic injection: every (chain, iteration) fires
// kind k with probability rate, decided by a per-chain RNG stream derived
// from the Injector seed (chains is the run's chain count). The decision
// sequence for a chain depends only on (seed, chain, iteration order), so
// reruns inject identically.
func (in *Injector) WithRandom(rate float64, k Kind, chains int) *Injector {
	in.rate = rate
	in.randKind = k
	in.streams = make([]*rng.RNG, chains)
	for c := range in.streams {
		in.streams[c] = rng.NewStream(in.seed, c)
	}
	return in
}

// WithSlow sets the stall duration Slow injections sleep for (default 0:
// Slow becomes a no-op marker that only counts).
func (in *Injector) WithSlow(d time.Duration) *Injector {
	in.slowFor = d
	return in
}

// WithCancel sets the function a Cancel injection invokes (at most once).
func (in *Injector) WithCancel(fn func()) *Injector {
	in.cancel = fn
	return in
}

// WithWorkerKill sets the function a WorkerLoss injection invokes (at
// most once) — typically the hosting cluster worker's Kill method.
func (in *Injector) WithWorkerKill(fn func()) *Injector {
	in.kill = fn
	return in
}

// Injected returns the total number of faults fired.
func (in *Injector) Injected() int64 { return in.injected.Load() }

// Fired returns how many times kind k fired.
func (in *Injector) Fired(k Kind) int64 {
	if k < Panic || k > WorkerLoss {
		// Network kinds fire in NetChaos, not the sampler-side Injector.
		return 0
	}
	return in.fired[k].Load()
}

// Hook is the mcmc.Config.FaultHook. It panics for Panic injections,
// sleeps for Slow, fires the cancel function for Cancel, and returns
// mcmc.FaultActNonFinite for NonFinite.
func (in *Injector) Hook(chain, iter int) mcmc.FaultAction {
	k, ok := in.plan[point{chain, iter}]
	if !ok && in.rate > 0 && chain < len(in.streams) {
		// One uniform per iteration per chain: the stream position is a
		// pure function of how many iterations the chain has run, so the
		// injection pattern is schedule-independent.
		if in.streams[chain].Float64() < in.rate {
			k, ok = in.randKind, true
		}
	}
	if !ok {
		return mcmc.FaultActNone
	}
	in.injected.Add(1)
	in.fired[k].Add(1)
	switch k {
	case Panic:
		panic(fmt.Sprintf("fault: injected panic at chain %d iter %d", chain, iter))
	case NonFinite:
		return mcmc.FaultActNonFinite
	case Slow:
		if in.slowFor > 0 {
			time.Sleep(in.slowFor)
		}
	case Cancel:
		if in.cancel != nil {
			in.once.Do(in.cancel)
		}
	case WorkerLoss:
		if in.kill != nil {
			in.killOnce.Do(in.kill)
		}
	}
	return mcmc.FaultActNone
}
