// Package cluster is the distributed serving layer: a coordinator that
// admits inference jobs through the same bounded queue discipline as the
// single-process server and shards them across a fleet of worker daemons,
// generalizing the paper's two-platform LLC-aware placement (§V) to N
// heterogeneous nodes.
//
// The protocol is pull-based HTTP and event-driven. A worker with a free
// slot keeps one lease request open at the coordinator (POST
// /cluster/v1/lease, a long-poll held for LeaseRequest.WaitMS), carrying
// its capability document — the same JSON the extended /readyz probe
// serves: LLC size, frequency, slot occupancy, grad-batch support. The
// coordinator re-evaluates every parked request whenever fleet state
// changes (a job admitted or requeued, a slot freed, a grant elsewhere, a
// worker joining or leaving) and grants a queued job to a worker only
// when its fleet scheduler would place that job on that worker among all
// currently-free nodes, so pull order never overrides placement policy.
// Granted jobs run on the worker's embedded serve.Server; every
// checkpoint the sampler takes is streamed back one boundary behind the
// sampler (POST .../checkpoint), and the terminal status, posterior
// summaries, and raw draw bytes are uploaded at completion
// (POST .../result).
//
// Fault model: workers heartbeat periodically (POST /cluster/v1/
// heartbeat) with per-job progress and their local serve.Stats. A worker
// whose heartbeats stop is reaped after HeartbeatTimeout; its assigned
// jobs are requeued — at the front of the queue, exempt from the
// admission bound — from their last uploaded checkpoint. Because the
// mcmc checkpoint format captures complete sampler state (positions,
// adaptation, RNG streams, draw prefixes) and resume replays the draw
// prefix, the migrated run on another worker is bit-identical, draw for
// draw, to an uninterrupted run of the same spec. A graceful drain is the
// same machinery minus the data loss: the worker stops leasing, finishes
// and uploads its running jobs, and says goodbye with a Leaving
// heartbeat.
//
// The coordinator serves the standard bayesd API (serve.NewAPIHandler)
// plus the /cluster/v1 worker protocol, so clients cannot tell a fleet
// from a single node except by the extra detail in /v1/stats and /readyz.
package cluster

import (
	"bayessuite/internal/serve"
)

// LeaseRequest is a worker's ask for work, carrying its live capability
// document so the coordinator's fleet view is fresh at grant time.
// WaitMS is how long the coordinator's HTTP handler may hold the request
// open while there is nothing to grant (clamped to [0, HeartbeatTimeout]);
// absent or zero — an older worker, or a direct Coordinator.Lease call —
// is answered at once.
type LeaseRequest struct {
	Worker     string           `json:"worker"`
	Capability serve.Capability `json:"capability"`
	WaitMS     int64            `json:"wait_ms,omitempty"`
}

// Lease grants one job to a worker. CheckpointB64, when non-empty, is the
// base64 of the job's last uploaded mcmc checkpoint — the worker resumes
// from it instead of initializing fresh chains, and ResumeIteration echoes
// the iteration it restarts at (for logs and tests).
type Lease struct {
	JobID           string        `json:"job_id"`
	Spec            serve.JobSpec `json:"spec"`
	Attempt         int           `json:"attempt"`
	CheckpointB64   string        `json:"checkpoint_b64,omitempty"`
	ResumeIteration int           `json:"resume_iteration,omitempty"`
	// CheckpointFP fingerprints the checkpoint (mcmc.Fingerprint) so the
	// worker can verify the handoff decoded to exactly what was granted.
	CheckpointFP uint64 `json:"checkpoint_fp,omitempty"`
}

// LeaseResponse carries the grant, or Lease == nil for "no work for you
// right now" (empty queue, no free slot, or placement prefers another
// node).
type LeaseResponse struct {
	Lease *Lease `json:"lease,omitempty"`
}

// JobProgress is one assigned job's progress line inside a heartbeat.
type JobProgress struct {
	JobID    string         `json:"job_id"`
	State    serve.JobState `json:"state"`
	Progress int            `json:"progress"`
}

// HeartbeatRequest is a worker's periodic liveness report: its capability
// (occupancy changes as jobs start and finish), its local serve.Stats
// (the per-node section of the coordinator's fleet stats), and per-job
// progress. Leaving marks the final heartbeat of a graceful drain.
type HeartbeatRequest struct {
	Worker     string           `json:"worker"`
	Capability serve.Capability `json:"capability"`
	Stats      serve.Stats      `json:"stats"`
	Jobs       []JobProgress    `json:"jobs,omitempty"`
	Leaving    bool             `json:"leaving,omitempty"`
}

// HeartbeatResponse tells the worker which of its assigned jobs were
// canceled coordinator-side since the last beat.
type HeartbeatResponse struct {
	Cancel []string `json:"cancel,omitempty"`
}

// ResultUpload is a worker's terminal report for one job: the final
// status, the result payload clients will read, and the raw draw bytes
// (EncodeDraws) that make coordinator-side bit-identity checks possible.
// Attempt is the upload's sequence number — the lease attempt that
// produced it — so duplicated deliveries deduplicate idempotently and a
// stale local run finishing after its lease was superseded (migration,
// coordinator restart) is rejected rather than clobbering the live one.
type ResultUpload struct {
	Worker   string              `json:"worker"`
	JobID    string              `json:"job_id"`
	Attempt  int                 `json:"attempt,omitempty"`
	Status   serve.JobStatus     `json:"status"`
	Payload  serve.ResultPayload `json:"payload"`
	DrawsB64 string              `json:"draws_b64,omitempty"`
}

// WorkerStats is one fleet member's section of the coordinator's
// /v1/stats document.
type WorkerStats struct {
	Capability serve.Capability `json:"capability"`
	// Stats is the worker's own serve.Stats as of its last heartbeat —
	// queue depth, faults, retries, elision savings, labeled with the
	// worker's node name.
	Stats serve.Stats `json:"stats"`
	// Healthy: heartbeats are arriving. Lost workers linger in the stats
	// (their assigned jobs migrated) until the coordinator restarts.
	Healthy bool `json:"healthy"`
	// AssignedJobs lists the coordinator job IDs currently leased to the
	// worker.
	AssignedJobs []string `json:"assigned_jobs,omitempty"`
}

// FleetStats is the coordinator's /v1/stats document: the fleet-wide
// rollup plus each worker's own stats, schema-compatible with the
// single-process Stats via the shared node labeling.
type FleetStats struct {
	Node     string `json:"node"`
	Role     string `json:"role"`
	Workers  int    `json:"workers"`
	Healthy  int    `json:"healthy_workers"`
	Draining bool   `json:"draining,omitempty"`
	// Recovering: a durable coordinator is still replaying its journal.
	Recovering bool `json:"recovering,omitempty"`

	// Coordinator admission-queue state.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	// Job lifecycle counts across the fleet.
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`

	// Migrations counts jobs requeued off lost or draining workers;
	// Reaped counts workers declared lost.
	Migrations int64 `json:"migrations"`
	Reaped     int64 `json:"reaped_workers"`

	// Checkpoint retention: the coordinator keeps only each unfinished
	// job's newest fingerprint-verified checkpoint. Retained is that live
	// count; GCed counts superseded or finished-job snapshots released
	// (memory and, in durable mode, blob store) since process start.
	CheckpointsRetained int   `json:"checkpoints_retained"`
	CheckpointsGCed     int64 `json:"checkpoints_gced"`

	// Fleet-wide rollups summed over worker heartbeat stats.
	ChainFaults     int64   `json:"chain_faults"`
	Retries         int64   `json:"retries"`
	SavedIterations int64   `json:"saved_iterations"`
	SavedJoules     float64 `json:"saved_joules"`

	// Gradient batching rolled up over worker heartbeat stats: fused
	// sweeps, the chain evaluations they carried, and their ratio.
	BatchSweeps        int64   `json:"batch_sweeps,omitempty"`
	BatchChainEvals    int64   `json:"batch_chain_evals,omitempty"`
	MeanBatchOccupancy float64 `json:"mean_batch_occupancy,omitempty"`

	// Placement state: the fitted threshold on the calibration platform
	// (each node's effective threshold scales with its LLC), or the
	// frequency-first fallback and why.
	PredictorThresholdKB float64 `json:"predictor_threshold_kb,omitempty"`
	FrequencyFirst       bool    `json:"frequency_first,omitempty"`
	PredictorNote        string  `json:"predictor_note,omitempty"`

	PerWorker []WorkerStats `json:"per_worker"`
}
