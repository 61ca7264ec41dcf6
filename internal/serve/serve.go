// Package serve is the serving layer: a long-lived job-queue inference
// service that puts the paper's two runtime mechanisms — LLC-aware
// platform placement (§V) and R̂-based computation elision (§VI) — behind
// a production-style API. Jobs name a BayesSuite workload from the
// registry; the server admits them through a bounded queue (backpressure
// when full), places each on a simulated platform via the static LLC
// predictor, runs the multi-chain sampler with per-job convergence
// detection, and exposes live progress, the R̂ trajectory, the placement
// decision with its rationale, posterior summaries, cancellation, and
// aggregate elision savings.
//
// Determinism contract: a job is fully described by its spec. Two jobs
// with identical specs return bit-identical draws and summaries, no
// matter how they interleave with other jobs in the queue or which worker
// runs them — sampling state is per-job (the RNG streams derive from the
// spec seed alone), so concurrency affects only latency, never results.
package serve

import (
	"sync"
	"time"

	"bayessuite/internal/mcmc"
)

// JobState is a job's lifecycle state. Transitions:
//
//	queued → running → done | failed | canceled
//	queued → canceled                      (cancel or drain before start)
//	running → retrying → queued            (all chains faulted; backoff)
//	retrying → canceled                    (cancel or drain before retry)
type JobState string

const (
	// Queued: admitted, waiting for a worker.
	Queued JobState = "queued"
	// Running: a worker is sampling.
	Running JobState = "running"
	// Retrying: every chain faulted; the job is waiting out its backoff
	// before re-entering the queue to resume from its last checkpoint.
	Retrying JobState = "retrying"
	// Done: completed (converged or budget exhausted).
	Done JobState = "done"
	// Failed: terminated abnormally (bad spec discovered late, timeout,
	// worker panic, or fault retries exhausted).
	Failed JobState = "failed"
	// Canceled: canceled by the client or by server drain.
	Canceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == Done || s == Failed || s == Canceled
}

// JobSpec describes one inference job. Zero fields take the documented
// defaults at admission; the normalized spec is echoed in job status.
type JobSpec struct {
	// Workload is a BayesSuite registry name (required; see
	// workloads.Names).
	Workload string `json:"workload"`
	// Iterations is the per-chain budget (default: the workload's
	// original user-chosen setting — the number elision competes with).
	Iterations int `json:"iterations,omitempty"`
	// Chains is the chain count (default 4, per Brooks et al.).
	Chains int `json:"chains,omitempty"`
	// Seed seeds dataset synthesis and every chain RNG stream. Equal
	// specs ⇒ bit-identical results.
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the dataset scale in (0, 1] (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Sampler is "nuts" (default), "hmc", or "mh".
	Sampler string `json:"sampler,omitempty"`
	// NoElide disables runtime convergence detection; the R̂ trajectory
	// is still tracked and reported.
	NoElide bool `json:"no_elide,omitempty"`
	// TimeoutSec bounds the job's running time (0: the server default).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// RHatPoint is one runtime convergence check, as reported over the API.
type RHatPoint struct {
	Iteration int     `json:"iteration"`
	RHat      float64 `json:"rhat"`
}

// PlacementDecision is where a job was placed and why — the serving-layer
// form of the paper's §V-A mechanism, generalized by the cluster
// coordinator from the two-platform box to a heterogeneous fleet.
type PlacementDecision struct {
	// Node, when set, names the fleet worker the job was placed on
	// (cluster mode; empty in single-process mode).
	Node string `json:"node,omitempty"`
	// Platform/Processor identify the simulated machine (Table II).
	Platform  string `json:"platform"`
	Processor string `json:"processor,omitempty"`
	// ModeledDataKB is the predictor's input feature.
	ModeledDataKB float64 `json:"modeled_data_kb"`
	// PredictedMPKI is the predicted 4-core LLC MPKI (0 under fallback).
	PredictedMPKI float64 `json:"predicted_mpki,omitempty"`
	// LLCBound is the predictor's classification.
	LLCBound bool `json:"llc_bound"`
	// FrequencyFirst marks the no-predictor fallback policy.
	FrequencyFirst bool `json:"frequency_first,omitempty"`
	// Reason explains the decision in one sentence.
	Reason string `json:"reason"`
}

// GradBatchStats is a job's cross-chain gradient batching accounting:
// how many data sweeps the run executed, how many chain gradient
// evaluations (rows) those sweeps carried, and their ratio — the mean
// number of chains served per sweep. Occupancy near the chain count means
// the chains' gradient requests met in full sets on a single core (the
// data was streamed from the cache hierarchy once per set, not once per
// chain); occupancy near 1 means there were cores enough to run every
// request at once. ChainEvals is fixed by the spec; Sweeps depends on how
// requests met at the rendezvous and varies between runs of one spec.
type GradBatchStats struct {
	Sweeps        int64   `json:"sweeps"`
	ChainEvals    int64   `json:"chain_evals"`
	MeanOccupancy float64 `json:"mean_occupancy"`
}

// ChainFaultInfo is one quarantined chain's fault record, as reported
// over the API (the wire form of mcmc.ChainFault; stack traces stay
// server-side).
type ChainFaultInfo struct {
	Chain     int    `json:"chain"`
	Kind      string `json:"kind"`
	Iteration int    `json:"iteration"`
	Msg       string `json:"msg"`
}

func faultInfos(faults []mcmc.ChainFault) []ChainFaultInfo {
	out := make([]ChainFaultInfo, len(faults))
	for i, f := range faults {
		out[i] = ChainFaultInfo{Chain: f.Chain, Kind: f.Kind.String(), Iteration: f.Iteration, Msg: f.Msg}
	}
	return out
}

// JobStatus is a point-in-time snapshot of a job, safe to marshal.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`
	Error string   `json:"error,omitempty"`
	// Node names the node the job runs (or ran) on: the server's own node
	// label in single-process mode, the assigned worker in cluster mode.
	Node string `json:"node,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Attempts counts sampling attempts so far (1 after the first run
	// starts). NextRetryAt is set while the job is Retrying.
	Attempts    int        `json:"attempts,omitempty"`
	NextRetryAt *time.Time `json:"next_retry_at,omitempty"`
	// ResumedFrom is the iteration the most recent attempt resumed from:
	// 0 for a fresh start, >0 after a checkpoint migration (cluster mode)
	// — the proof a migrated job resumed rather than restarted.
	ResumedFrom int `json:"resumed_from,omitempty"`
	// ChainFaults lists the quarantined chains of the most recent attempt.
	ChainFaults []ChainFaultInfo `json:"chain_faults,omitempty"`

	// Progress is the iteration every chain has completed, out of Budget.
	Progress int `json:"progress"`
	Budget   int `json:"budget"`

	Placement *PlacementDecision `json:"placement,omitempty"`
	RHatTrace []RHatPoint        `json:"rhat_trace,omitempty"`

	// GradBatch is the most recent attempt's gradient batching accounting
	// (absent when the model exposes no batched kernels or the run never
	// coalesced a sweep).
	GradBatch *GradBatchStats `json:"grad_batch,omitempty"`

	// Elided: the run stopped early on convergence. Interrupted: it was
	// cut short by cancel/timeout (draws up to Progress are retained).
	Elided      bool `json:"elided"`
	Interrupted bool `json:"interrupted,omitempty"`
	// SavedIterations/SavedJoules are the job's elision savings across
	// chains (iterations not executed; simulated energy not spent).
	SavedIterations int64   `json:"saved_iterations"`
	SavedJoules     float64 `json:"saved_joules"`
}

// ParamSummary is one parameter's posterior summary (diag.Summary with
// wire names).
type ParamSummary struct {
	Name   string  `json:"name,omitempty"`
	Mean   float64 `json:"mean"`
	SD     float64 `json:"sd"`
	Q05    float64 `json:"q05"`
	Median float64 `json:"median"`
	Q95    float64 `json:"q95"`
	RHat   float64 `json:"rhat"`
	ESS    float64 `json:"ess"`
}

// ResultPayload is the /result response: posterior summaries over the
// post-warmup draws, plus the run's accounting.
type ResultPayload struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Partial marks summaries computed from an interrupted run's aligned
	// prefix rather than a finished run.
	Partial    bool           `json:"partial,omitempty"`
	Elided     bool           `json:"elided"`
	Iterations int            `json:"iterations"`
	Budget     int            `json:"budget"`
	MaxRHat    float64        `json:"max_rhat"`
	WorkEvals  int64          `json:"work_evals"`
	Summaries  []ParamSummary `json:"summaries"`
	// ChainFaults lists chains quarantined during the run; when non-empty
	// the summaries cover only the surviving chains.
	ChainFaults []ChainFaultInfo `json:"chain_faults,omitempty"`
}

// PlatformStats is one simulated platform's live accounting.
type PlatformStats struct {
	Platform    string  `json:"platform"`
	Cores       int     `json:"cores"`
	CoresInUse  int     `json:"cores_in_use"`
	Utilization float64 `json:"utilization"`
	RunningJobs int     `json:"running_jobs"`
	TotalJobs   int     `json:"total_jobs"`
}

// Capability is a node's self-description, served by the extended /readyz
// probe (content-negotiated: clients that ask for application/json get
// this document, bare probes keep the old {"status"} body) and carried in
// every cluster lease and heartbeat. The coordinator's fleet-generalized
// placement runs on these fields: LLC capacity decides where an LLC-bound
// job can fit, frequency breaks ties the paper's way (§V), and occupancy
// spreads load across otherwise-equal workers.
type Capability struct {
	// Node is the node's unique name; Role is "node" (single-process),
	// "worker", or "coordinator".
	Node string `json:"node"`
	Role string `json:"role"`
	// Status mirrors the bare probe: "ready", "recovering", or
	// "draining".
	Status string `json:"status,omitempty"`
	// State distinguishes a cold start from a journal recovery:
	// "recovering" while a durable coordinator is still replaying its
	// state journal (jobs are not leased yet), "ready" otherwise. The
	// bare probe's Status mirrors it.
	State string `json:"state,omitempty"`
	// Journal describes the durable state journal once recovery has
	// completed (nil on nodes running without a state dir).
	Journal *JournalStatus `json:"journal,omitempty"`
	// Platform is the simulated platform this node models (Table II
	// codename); LLCBytes/FrequencyGHz/Cores are its placement-relevant
	// hardware facts.
	Platform     string  `json:"platform,omitempty"`
	LLCBytes     int64   `json:"llc_bytes"`
	FrequencyGHz float64 `json:"frequency_ghz"`
	Cores        int     `json:"cores"`
	// Slots is the node's job-runner pool size; Running and QueueDepth are
	// its live load; Occupancy is Running/Slots.
	Slots      int     `json:"slots"`
	Running    int     `json:"running"`
	QueueDepth int     `json:"queue_depth"`
	Occupancy  float64 `json:"occupancy"`
	// GradBatch reports cross-chain gradient batching support (fused
	// multi-chain sweeps for batchable workloads).
	GradBatch bool `json:"grad_batch"`
	// KernelISA names the instruction set the GLM kernels' link functions
	// run on here (mathx.VectorISA: "avx2+fma" or "generic"); empty on a
	// coordinator, which samples nothing. Results are bit-identical
	// either way, throughput is not. Descriptive only: placement does
	// not read it.
	KernelISA string `json:"kernel_isa,omitempty"`
	Draining  bool   `json:"draining,omitempty"`
}

// JournalStatus is the durable-coordinator journal section of the
// /readyz capability document: where the journal lives, how many
// records the last recovery replayed, and how long the replay took —
// what lets an operator tell a cold start (0 records) from a recovery.
type JournalStatus struct {
	Path            string  `json:"path"`
	RecordsReplayed int     `json:"records_replayed"`
	ReplayMillis    float64 `json:"replay_ms"`
}

// Stats is the /v1/stats response.
type Stats struct {
	// Node labels which node these counters belong to, so single-process
	// stats and the per-worker sections of the coordinator's fleet stats
	// share one schema.
	Node       string `json:"node"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Running    int    `json:"running"`
	Retrying   int    `json:"retrying"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	Canceled   int    `json:"canceled"`

	// Fault and retry accounting, cumulative since server start:
	// ChainFaults counts quarantined chains across all runs, Retries
	// counts fault-triggered re-executions, and PanicsRecovered counts
	// worker-level panics converted into job failure records.
	ChainFaults     int64 `json:"chain_faults"`
	Retries         int64 `json:"retries"`
	PanicsRecovered int64 `json:"panics_recovered"`

	Platforms []PlatformStats `json:"platforms"`

	// Gradient batching aggregated over all jobs: fused sweeps executed,
	// chain evaluations they carried, and the service-wide mean batch
	// occupancy (chain_evals / sweeps).
	BatchSweeps        int64   `json:"batch_sweeps,omitempty"`
	BatchChainEvals    int64   `json:"batch_chain_evals,omitempty"`
	MeanBatchOccupancy float64 `json:"mean_batch_occupancy,omitempty"`

	// Elision savings aggregated over completed jobs.
	SavedIterations int64   `json:"saved_iterations"`
	SavedJoules     float64 `json:"saved_joules"`

	// Predictor state: the LLC-bound threshold when fitted, or the
	// frequency-first fallback and why.
	PredictorThresholdKB float64 `json:"predictor_threshold_kb,omitempty"`
	FrequencyFirst       bool    `json:"frequency_first,omitempty"`
	PredictorNote        string  `json:"predictor_note,omitempty"`

	Draining bool `json:"draining,omitempty"`
}

// Job is one admitted inference job. All mutable fields are guarded by
// mu; HTTP handlers and the worker running the job observe it only
// through snapshots.
type Job struct {
	id        string
	spec      JobSpec // normalized
	budget    int
	node      string // the admitting server's node label
	submitted time.Time

	mu        sync.Mutex
	state     JobState
	errMsg    string
	started   time.Time
	finished  time.Time
	progress  int
	rhat      []RHatPoint
	placement *PlacementDecision

	elided          bool
	interrupted     bool
	savedIters      int64
	savedJoules     float64
	cancelRequested bool
	cancelCause     string
	cancelRun       func() // cancels the running sampler's context

	// Fault/retry state. attempts counts sampling attempts started;
	// checkpoint is the most recent all-healthy snapshot (what a retry
	// resumes from); faults records the latest attempt's quarantined
	// chains; retryTimer/nextRetry are live only in the Retrying state.
	attempts   int
	checkpoint *mcmc.Checkpoint
	faults     []mcmc.ChainFault
	retryTimer *time.Timer
	nextRetry  time.Time

	result    *mcmc.Result
	summaries []ParamSummary
	maxRHat   float64

	// Gradient batching accounting of the most recent attempt (zero when
	// the model is not batchable).
	batchSweeps     int64
	batchChainEvals int64

	done chan struct{}
}

// ID returns the job's server-assigned identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:              j.id,
		State:           j.state,
		Spec:            j.spec,
		Error:           j.errMsg,
		Node:            j.node,
		SubmittedAt:     j.submitted,
		Progress:        j.progress,
		Budget:          j.budget,
		Elided:          j.elided,
		Interrupted:     j.interrupted,
		SavedIterations: j.savedIters,
		SavedJoules:     j.savedJoules,
		Attempts:        j.attempts,
	}
	if j.state == Retrying && !j.nextRetry.IsZero() {
		t := j.nextRetry
		st.NextRetryAt = &t
	}
	if len(j.faults) > 0 {
		st.ChainFaults = faultInfos(j.faults)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.placement != nil {
		p := *j.placement
		st.Placement = &p
	}
	if len(j.rhat) > 0 {
		st.RHatTrace = append([]RHatPoint(nil), j.rhat...)
	}
	if j.batchSweeps > 0 {
		st.GradBatch = &GradBatchStats{
			Sweeps:        j.batchSweeps,
			ChainEvals:    j.batchChainEvals,
			MeanOccupancy: float64(j.batchChainEvals) / float64(j.batchSweeps),
		}
	}
	return st
}

// Result returns the job's result payload, or false while the job is
// still queued or running. Interrupted jobs return their partial
// summaries with Partial set.
func (j *Job) Result() (ResultPayload, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return ResultPayload{ID: j.id, State: j.state}, false
	}
	p := ResultPayload{
		ID:        j.id,
		State:     j.state,
		Partial:   j.state != Done,
		Elided:    j.elided,
		Budget:    j.budget,
		MaxRHat:   j.maxRHat,
		Summaries: append([]ParamSummary(nil), j.summaries...),
	}
	if len(j.faults) > 0 {
		p.ChainFaults = faultInfos(j.faults)
	}
	if j.result != nil {
		p.Iterations = j.result.Iterations
		p.WorkEvals = j.result.TotalWork()
	}
	return p, true
}

// Raw returns the underlying mcmc result for in-process callers (tests,
// the bit-identity acceptance check) once the job is terminal, else nil.
func (j *Job) Raw() *mcmc.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil
	}
	return j.result
}
