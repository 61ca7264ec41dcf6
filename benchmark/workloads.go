package main

import "fmt"

// stack names how a workload reaches the sampler.
type stack int

const (
	// stackNode: one bayesd process, spoken to over HTTP.
	stackNode stack = iota
	// stackFleet: a durable bayesd coordinator plus two bayesd workers.
	stackFleet
	// stackLib: bayessuite.Fit called in-process (the library path).
	stackLib
)

// jobKind is one entry of a workload's mix. A job is its kind plus a seed.
type jobKind struct {
	Workload   string
	Scale      float64
	Iterations int    // 0: the registry's default budget
	Sampler    string // "" (nuts) or "hmc"
}

// jobSpec is the wire form of a bayesd job (POST /v1/jobs). Only the
// fields the benchmark sets are listed; the daemon fills the rest.
type jobSpec struct {
	Workload   string  `json:"workload"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	Iterations int     `json:"iterations,omitempty"`
	Sampler    string  `json:"sampler,omitempty"`
	NoElide    bool    `json:"no_elide,omitempty"`
}

// workload is one named rung of the end-to-end ladder. The mix is fixed;
// only job seeds (and so datasets and chain streams) change with -seed.
type workload struct {
	Name    string
	Why     string
	Stack   stack
	Clients int
	// NodeFlags are the bayesd flags beyond -addr for stackNode.
	NodeFlags []string
	Mix       []jobKind
	// Elide: jobs run with runtime convergence elision (the service
	// default). The library workload runs fixed budgets.
	Elide bool
}

// The five workloads. Names are final: later issues cite them. The mixes
// are the issue's, with data scales and iteration budgets shrunk so that a
// round-robin cycle of each takes 2-3 s on two cores and a 12 s measured
// window holds at least four of them (README, "Sizing").
var allWorkloads = []workload{
	{
		Name:  "glm-sweep",
		Why:   "kernel-backed batchable GLM jobs run as fused lockstep sweeps: kernels and the mcmc coalescer do nearly all the work, serve under 1%",
		Stack: stackNode, Clients: 1, NodeFlags: []string{"-workers", "1"}, Elide: true,
		Mix: []jobKind{
			{Workload: "tickets", Scale: 0.05},
			{Workload: "memory", Scale: 0.3},
		},
	},
	{
		Name:  "tape-mix",
		Why:   "unbatchable jobs evaluated through the node-per-observation ad tape: kernels and the coalescer idle, ad, model and NUTS tree-building dominate",
		Stack: stackNode, Clients: 1, NodeFlags: []string{"-workers", "1"}, Elide: true,
		Mix: []jobKind{
			{Workload: "disease", Scale: 0.03},
			{Workload: "votes", Scale: 0.02},
			{Workload: "racial", Scale: 0.25},
			{Workload: "butterfly", Scale: 0.5},
			{Workload: "survival", Scale: 0.5},
		},
	},
	{
		Name:  "node-small",
		Why:   "many 0.1 s jobs from two clients on one default bayesd: admission, dataset synthesis, placement, checkpoints, summaries and JSON are a visible share",
		Stack: stackNode, Clients: 2, Elide: true,
		Mix: smallMix,
	},
	{
		Name:  "fleet-small",
		Why:   "the node-small jobs through a durable coordinator and two workers: leases, streamed checkpoints, fsync journaling and result upload are the extra work",
		Stack: stackFleet, Clients: 2, Elide: true,
		Mix: smallMix,
	},
	{
		Name:  "fit-free",
		Why:   "the library path, bayessuite.Fit with free-running parallel chains, fixed budgets, single-evaluation kernels and HMC beside NUTS: everything glm-sweep bypasses",
		Stack: stackLib, Clients: 1,
		Mix: []jobKind{
			{Workload: "ad", Scale: 1.0, Iterations: 200},
			{Workload: "12cities", Scale: 1.0, Iterations: 600},
			{Workload: "memory", Scale: 0.5, Iterations: 100},
			{Workload: "tickets", Scale: 0.25, Iterations: 60, Sampler: "hmc"},
		},
	},
}

var smallMix = []jobKind{
	{Workload: "12cities", Scale: 0.25},
	{Workload: "ad", Scale: 0.25},
	{Workload: "butterfly", Scale: 0.25},
	{Workload: "survival", Scale: 0.25},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// splitmix64 derives the i-th job seed from the run seed (Steele, Lea &
// Flood's SplitMix64 finaliser over seed + (i+1)·γ). Zero is skipped: the
// daemon's JSON treats a zero seed as "unset".
func splitmix64(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// jobAt is the i-th job of a workload at a run seed: the mix in
// round-robin order, each job with its own derived seed. The list is
// unbounded; a run takes the prefix that fits its measured window.
func (w workload) jobAt(seed uint64, i int) jobSpec {
	k := w.Mix[i%len(w.Mix)]
	return jobSpec{
		Workload:   k.Workload,
		Scale:      k.Scale,
		Seed:       splitmix64(seed, i),
		Iterations: k.Iterations,
		Sampler:    k.Sampler,
		NoElide:    !w.Elide,
	}
}

// warmupJob is the small job each service slot runs during set-up so the
// measured window starts with a warm process (registry defaults cached,
// runtime and allocator grown). Its seed comes from a stream disjoint from
// the measured jobs'.
func (w workload) warmupJob(seed uint64, slot int) jobSpec {
	k := w.Mix[slot%len(w.Mix)]
	return jobSpec{
		Workload:   k.Workload,
		Scale:      0.05,
		Seed:       splitmix64(^seed, slot),
		Iterations: 100,
	}
}
