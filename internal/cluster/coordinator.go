package cluster

import (
	"context"
	"encoding/base64"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bayessuite/internal/mcmc"
	"bayessuite/internal/sched"
	"bayessuite/internal/serve"
	"bayessuite/internal/workloads"
)

// CoordinatorConfig configures a Coordinator. Zero values take the
// documented defaults.
type CoordinatorConfig struct {
	// Node labels the coordinator in stats and /readyz (default
	// "coordinator").
	Node string
	// QueueCap bounds the admission queue (default 64), with the same
	// backpressure semantics as the single-process server.
	QueueCap int
	// Predictor, when non-nil, is a pre-fitted LLC predictor and wins over
	// CalibrationPoints; the fleet scheduler scales its threshold per node.
	Predictor *sched.Predictor
	// CalibrationPoints, when non-empty (and Predictor is nil), are fitted
	// at construction; a failed fit falls back to frequency-first.
	CalibrationPoints []sched.Point
	// HeartbeatTimeout is how long a worker may go silent before it is
	// declared lost and its jobs migrate (default 2s).
	HeartbeatTimeout time.Duration
	// ReapInterval is how often the reaper scans for lost workers
	// (default: HeartbeatTimeout/4).
	ReapInterval time.Duration
	// MaxMigrations bounds how many times one job may be requeued off a
	// lost worker before it fails (default 3; -1 disables migration
	// entirely — worker loss fails the job).
	MaxMigrations int
	// StateDir, when non-empty, makes the coordinator durable: every
	// state transition is journaled (fsynced before acknowledgment) under
	// this directory, checkpoints and result draws land in a
	// content-addressed blob store, and a restarted coordinator replays
	// the journal, requeues unfinished jobs from their newest
	// fingerprint-verified checkpoints, and reports "recovering" on
	// /readyz until replay completes. Empty keeps the pre-durability
	// in-memory coordinator.
	StateDir string

	// recoverGate, when non-nil, stalls recovery until the channel
	// closes — a test hook for observing the "recovering" state
	// deterministically.
	recoverGate <-chan struct{}
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Node == "" {
		c.Node = "coordinator"
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	if c.ReapInterval == 0 {
		c.ReapInterval = c.HeartbeatTimeout / 4
	}
	if c.MaxMigrations == 0 {
		c.MaxMigrations = 3
	}
	if c.MaxMigrations < 0 {
		c.MaxMigrations = 0
	}
	return c
}

// clusterJob is one admitted job's coordinator-side record. Guarded by
// mu; the coordinator lock (Coordinator.mu) may be held when mu is taken,
// never the reverse. Every field below mu but progress and placement is
// written by apply alone, as is the closing of done.
type clusterJob struct {
	id           string
	spec         serve.JobSpec // normalized
	budget       int
	modeledBytes int
	submitted    time.Time

	mu          sync.Mutex
	state       serve.JobState
	errMsg      string
	worker      string    // current assignment ("" while queued)
	granted     time.Time // when the current lease was granted
	leases      int       // lease grants so far
	requeues    int       // migrations off lost/draining workers
	resumedFrom int       // iteration the current lease resumed from
	started     time.Time
	finished    time.Time
	progress    int

	cancelRequested bool
	cancelCause     string

	checkpoint *mcmc.Checkpoint // last uploaded all-healthy snapshot
	ckptAddr   string           // blob address of checkpoint (durable mode)
	placement  *serve.PlacementDecision

	// Terminal upload from the worker that finished the job.
	finalStatus *serve.JobStatus
	result      *serve.ResultPayload
	draws       []byte // EncodeDraws block
	drawsAddr   string // blob address of draws (durable mode)

	done chan struct{}
}

// workerState is one fleet member's coordinator-side record. Guarded by
// Coordinator.mu.
type workerState struct {
	cap      serve.Capability
	stats    serve.Stats
	lastSeen time.Time
	assigned map[string]*clusterJob
	lost     bool
	// left: lost by the worker's own Leaving heartbeat rather than by the
	// reaper. A reaped worker that asks for work again was slow, not dead,
	// and re-registers; one that said goodbye is gone, and a lease request
	// of its that is evaluated after the goodbye (parked, duplicated, or
	// overtaken on the wire) must not bring the name back. Only a
	// heartbeat — which a new process under the same name sends first —
	// re-registers it.
	left bool
}

// Coordinator is the fleet control plane: admission, fleet-aware
// placement, worker liveness, and checkpoint-based job migration. It
// implements serve.API, so serve.NewAPIHandler gives it the standard
// bayesd client surface.
type Coordinator struct {
	cfg      CoordinatorConfig
	fleet    *sched.Fleet
	predNote string

	queue *serve.Queue[*clusterJob]

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*clusterJob
	order    []string
	workers  map[string]*workerState

	// The change signal parked lease requests wait on (awaitLease):
	// changed is closed and replaced by wake on every transition that can
	// alter some worker's lease answer. sigMu is a leaf lock, taken with
	// or without mu and cj.mu held. halted: draining or Killed, park no
	// more.
	sigMu   sync.Mutex
	changed chan struct{}
	halted  atomic.Bool

	migrations atomic.Int64
	reaped     atomic.Int64
	ckptGCed   atomic.Int64

	// Durability (StateDir set). store is written once, during recovery,
	// before recovered closes; recovered gates every job-touching API
	// method. failed holds the failure (a recovery's, or a journal
	// append's) that stops all further transitions. jinfo (guarded by mu)
	// is the replay report surfaced on /readyz.
	store      *durableStore
	recovering atomic.Bool
	recovered  chan struct{}
	failed     atomic.Pointer[error]
	jinfo      *serve.JournalStatus

	reapStop chan struct{}
	reapDone chan struct{}
	stopOnce sync.Once
}

// NewCoordinator builds the coordinator, fits the fleet predictor if
// calibration points were supplied, and starts the liveness reaper.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:       cfg,
		queue:     serve.NewQueue[*clusterJob](cfg.QueueCap),
		jobs:      make(map[string]*clusterJob),
		workers:   make(map[string]*workerState),
		changed:   make(chan struct{}),
		recovered: make(chan struct{}),
		reapStop:  make(chan struct{}),
		reapDone:  make(chan struct{}),
	}
	pred, note := serve.SetUpPredictor(cfg.Predictor, cfg.CalibrationPoints)
	if pred != nil {
		note += " (scaled per node LLC)"
	}
	co.predNote = note
	co.fleet = sched.NewFleet(pred)
	if cfg.StateDir != "" {
		// Durable: replay asynchronously so /readyz and /v1/stats can
		// report "recovering" while the journal rebuilds state. The reaper
		// waits for recovery too.
		co.recovering.Store(true)
		go co.runRecovery()
	} else {
		close(co.recovered)
	}
	go co.reaper()
	return co
}

// SubmitJob validates and admits a job fleet-wide. The workload is
// constructed once here to size its modeled data — the feature the fleet
// placement runs on — then discarded; the assigned worker rebuilds it.
func (co *Coordinator) SubmitJob(spec serve.JobSpec) (serve.JobStatus, error) {
	if err := co.ready(); err != nil {
		return serve.JobStatus{}, err
	}
	norm, budget, err := serve.Normalize(spec)
	if err != nil {
		return serve.JobStatus{}, err
	}
	w, err := workloads.New(norm.Workload, norm.Scale, norm.Seed)
	if err != nil {
		return serve.JobStatus{}, fmt.Errorf("%w: building workload: %v", serve.ErrBadSpec, err)
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.draining {
		return serve.JobStatus{}, serve.ErrDraining
	}
	// The offer takes the admission slot (or fails on backpressure) before
	// anything is journaled; Lease passes the job over until the admit
	// applies, and a failed commit takes it back out.
	cj := &clusterJob{id: fmt.Sprintf("cjob-%06d", co.seq+1), done: make(chan struct{})}
	if err := co.queue.Offer(cj); err != nil {
		return serve.JobStatus{}, err
	}
	cj.mu.Lock()
	err = co.commit(cj, record{T: "admit", ID: cj.id, Spec: &norm, Budget: budget,
		ModeledBytes: w.ModeledDataBytes(), SubmittedNS: time.Now().UnixNano()})
	st := cj.statusLocked()
	cj.mu.Unlock()
	if err != nil {
		co.queue.PopWhere(func(j *clusterJob) bool { return j == cj })
		return serve.JobStatus{}, err
	}
	co.wake() // a job to place
	return st, nil
}

// GetJob returns a job's live status: the coordinator's view while the
// job is queued or running (progress arrives via heartbeats), the
// worker's full terminal status once uploaded.
func (co *Coordinator) GetJob(id string) (serve.JobStatus, error) {
	cj, err := co.job(id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.statusLocked(), nil
}

// GetResult returns a job's result payload; ready=false while the job is
// still queued, running, or mid-migration. A finished job's payload is
// its worker's upload. One that ended without an upload (canceled while
// queued or by a drain, out of migration budget) never ran to a result,
// and its payload says so as a node's does: partial, no iterations, no
// summaries. It derives from the job, so replay rebuilds it unrecorded.
func (co *Coordinator) GetResult(id string) (serve.ResultPayload, bool, error) {
	cj, err := co.job(id)
	if err != nil {
		return serve.ResultPayload{}, false, err
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if !cj.state.Terminal() {
		return serve.ResultPayload{ID: cj.id, State: cj.state}, false, nil
	}
	p := serve.ResultPayload{Partial: cj.state != serve.Done, Budget: cj.budget}
	if cj.result != nil {
		p = *cj.result
	}
	p.ID = cj.id
	p.State = cj.state
	return p, true, nil
}

// CancelJob cancels a job. Queued jobs are pulled out of the queue and
// finalized immediately; running jobs get the cancel on their worker's
// next heartbeat and finalize when the worker uploads the canceled
// result.
func (co *Coordinator) CancelJob(id string) (serve.JobStatus, error) {
	if err := co.ready(); err != nil {
		return serve.JobStatus{}, err
	}
	cj, err := co.job(id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	st, queued, err := co.cancel(cj, "canceled by client while queued", "canceled by client while running")
	if queued {
		// Finalized, so Lease passes it over; now it leaves the queue.
		co.queue.PopWhere(func(j *clusterJob) bool { return j == cj })
		co.wake() // the queue changed
	}
	return st, err
}

// cancel ends a queued job at once (queued reports it), or records the
// cancel of a running one, which its worker learns on its next heartbeat
// and a restart must not resurrect as runnable.
func (co *Coordinator) cancel(cj *clusterJob, queuedMsg, runningCause string) (st serve.JobStatus, queued bool, err error) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	switch {
	case cj.state.Terminal():
		return cj.statusLocked(), false, serve.ErrFinished
	case cj.state == serve.Queued:
		err, queued = co.commit(cj, cj.final(serve.Canceled, queuedMsg, cj.requeues)), true
	case !cj.cancelRequested:
		err = co.commit(cj, record{T: "cancel", ID: cj.id, Cause: runningCause})
	}
	if err != nil {
		return serve.JobStatus{}, false, err
	}
	return cj.statusLocked(), queued, nil
}

// ListJobs returns every job's status in submission order.
func (co *Coordinator) ListJobs() []serve.JobStatus {
	co.ready()
	out := make([]serve.JobStatus, 0)
	for _, cj := range co.snapshot() {
		cj.mu.Lock()
		out = append(out, cj.statusLocked())
		cj.mu.Unlock()
	}
	return out
}

// ServiceStats returns the FleetStats document.
func (co *Coordinator) ServiceStats() any {
	co.mu.Lock()
	st := FleetStats{
		Node:            co.cfg.Node,
		Role:            "coordinator",
		Draining:        co.draining,
		Recovering:      co.recovering.Load(),
		QueueCap:        co.cfg.QueueCap,
		Migrations:      co.migrations.Load(),
		Reaped:          co.reaped.Load(),
		CheckpointsGCed: co.ckptGCed.Load(),
		PredictorNote:   co.predNote,
	}
	if co.fleet.Predictor != nil {
		st.PredictorThresholdKB = co.fleet.Predictor.ThresholdKB
	} else {
		st.FrequencyFirst = true
	}
	names := make([]string, 0, len(co.workers))
	for name := range co.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ws := co.workers[name]
		w := WorkerStats{Capability: ws.cap, Stats: ws.stats, Healthy: !ws.lost}
		for id := range ws.assigned {
			w.AssignedJobs = append(w.AssignedJobs, id)
		}
		sort.Strings(w.AssignedJobs)
		st.Workers++
		if !ws.lost {
			st.Healthy++
		}
		st.ChainFaults += ws.stats.ChainFaults
		st.Retries += ws.stats.Retries
		st.SavedIterations += ws.stats.SavedIterations
		st.SavedJoules += ws.stats.SavedJoules
		st.PerWorker = append(st.PerWorker, w)
	}
	co.mu.Unlock()

	st.QueueDepth = co.queue.Len()
	for _, cj := range co.snapshot() {
		cj.mu.Lock()
		if cj.checkpoint != nil {
			st.CheckpointsRetained++
		}
		switch cj.state {
		case serve.Queued:
			st.Queued++
		case serve.Running:
			st.Running++
		case serve.Done:
			st.Done++
		case serve.Failed:
			st.Failed++
		case serve.Canceled:
			st.Canceled++
		}
		cj.mu.Unlock()
	}
	return st
}

// Capability returns the coordinator's self-description: fleet-aggregate
// slots and load over the healthy workers.
func (co *Coordinator) Capability() serve.Capability {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := serve.Capability{
		Node:       co.cfg.Node,
		Role:       "coordinator",
		Status:     "ready",
		State:      "ready",
		QueueDepth: co.queue.Len(),
		Draining:   co.draining,
	}
	if co.draining {
		c.Status = "draining"
	}
	if co.recovering.Load() {
		// Journal replay in progress: /readyz reports 503 until the
		// rebuilt jobs are requeued and leases can be granted again.
		c.Status, c.State = "recovering", "recovering"
	} else if co.failure() != nil {
		// Not ready until a restart replays the journal: recovery failed
		// (no store was installed) or, later, an append did.
		c.Status, c.State = "journal-failed", "recovering"
		if co.store == nil {
			c.Status = "recovery-failed"
		}
	}
	if co.jinfo != nil {
		j := *co.jinfo
		c.Journal = &j
	}
	for _, ws := range co.workers {
		if ws.lost {
			continue
		}
		c.Slots += ws.cap.Slots
		c.Running += len(ws.assigned)
		c.Cores += ws.cap.Cores
		if ws.cap.LLCBytes > c.LLCBytes {
			c.LLCBytes = ws.cap.LLCBytes // largest node LLC in the fleet
		}
		if ws.cap.FrequencyGHz > c.FrequencyGHz {
			c.FrequencyGHz = ws.cap.FrequencyGHz
		}
	}
	if c.Slots > 0 {
		c.Occupancy = float64(c.Running) / float64(c.Slots)
	}
	return c
}

// Lease evaluates a worker's ask for work once, answering at once
// (req.WaitMS is the HTTP handler's business: it parks an empty answer and
// calls Lease again on every change): refresh the worker's liveness and
// capability, then grant the first queued job whose fleet placement —
// sched.Fleet.Place over a snapshot of every live worker, which itself
// skips the ones without a free slot — picks this worker. Pull order
// never overrides placement: a job whose best node is busy or someone
// else stays queued until that node's own request is evaluated.
func (co *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if req.Worker == "" {
		return LeaseResponse{}, fmt.Errorf("%w: lease without worker name", serve.ErrBadSpec)
	}
	if err := co.ready(); err != nil {
		return LeaseResponse{}, err
	}
	co.mu.Lock()
	if old, ok := co.workers[req.Worker]; co.draining || (ok && old.left) {
		co.mu.Unlock()
		return LeaseResponse{}, nil
	}
	ws := co.touchWorker(req.Worker, req.Capability)
	if ws.cap.Draining || len(ws.assigned) >= ws.cap.Slots {
		co.mu.Unlock()
		return LeaseResponse{}, nil
	}
	// Snapshot placement candidates: every live worker, Running counted
	// from coordinator-side assignments (authoritative at grant time; the
	// heartbeat-reported occupancy lags by one lease).
	nodes := make([]sched.Node, 0, len(co.workers))
	for name, w := range co.workers {
		if w.lost || w.cap.Draining {
			continue
		}
		nodes = append(nodes, sched.Node{
			ID:           name,
			LLCBytes:     w.cap.LLCBytes,
			FrequencyGHz: w.cap.FrequencyGHz,
			Cores:        w.cap.Cores,
			Slots:        w.cap.Slots,
			Running:      len(w.assigned),
		})
	}
	co.mu.Unlock()

	for {
		var assign sched.FleetAssignment
		cj, ok := co.queue.PopWhere(func(j *clusterJob) bool {
			j.mu.Lock()
			queued := j.state == serve.Queued
			name, bytes := j.spec.Workload, j.modeledBytes
			j.mu.Unlock()
			if !queued {
				return false
			}
			a, placed := co.fleet.Place(name, bytes, nodes)
			if !placed || a.Node.ID != req.Worker {
				return false
			}
			assign = a
			return true
		})
		if !ok {
			return LeaseResponse{}, nil
		}
		lease, err := co.grant(cj, req, assign)
		if err != nil {
			// The failed grant changed nothing: the job is still queued. A
			// queue closed by a drain leaves it to Shutdown, which ends
			// queued jobs from the table.
			_ = co.queue.Requeue(cj)
			return LeaseResponse{}, err
		}
		if lease == nil {
			continue // a cancel ended the job between the pop and the grant
		}
		co.mu.Lock()
		if w, ok := co.workers[req.Worker]; ok {
			w.assigned[cj.id] = cj
		}
		co.mu.Unlock()
		co.wake() // the free-node set shrank: the next queued job may place elsewhere now
		return LeaseResponse{Lease: lease}, nil
	}
}

// grant leases the popped job cj to req.Worker: the lease record is
// durable before the worker learns of it (a coordinator killed after the
// append replays the lease and requeues the job; killed before it, the
// worker never saw the lease either way). A job a cancel ended between
// the pop and this lock is not granted (nil lease, nil error).
func (co *Coordinator) grant(cj *clusterJob, req LeaseRequest, a sched.FleetAssignment) (*Lease, error) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.state != serve.Queued {
		return nil, nil
	}
	if err := co.commit(cj, record{T: "lease", ID: cj.id, Worker: req.Worker, Attempt: cj.leases + 1,
		GrantedNS: time.Now().UnixNano(), ResumeAt: cj.resumeAt()}); err != nil {
		return nil, err
	}
	cj.placement = &serve.PlacementDecision{
		Node:           a.Node.ID,
		Platform:       req.Capability.Platform,
		ModeledDataKB:  a.ModeledDataKB,
		PredictedMPKI:  a.PredictedMPKI,
		LLCBound:       a.LLCBound,
		FrequencyFirst: a.FrequencyFirst,
		Reason:         a.Reason,
	}
	lease := &Lease{JobID: cj.id, Spec: cj.spec, Attempt: cj.leases}
	if cj.checkpoint != nil {
		lease.CheckpointB64 = base64.StdEncoding.EncodeToString(cj.checkpoint.Encode())
		lease.ResumeIteration = cj.checkpoint.Iteration
		lease.CheckpointFP = cj.checkpoint.Fingerprint()
	}
	return lease, nil
}

// Heartbeat handles a worker's periodic report, returning the IDs of its
// assigned jobs canceled coordinator-side since the last beat.
func (co *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	if req.Worker == "" {
		return HeartbeatResponse{}, fmt.Errorf("%w: heartbeat without worker name", serve.ErrBadSpec)
	}
	if err := co.ready(); err != nil {
		return HeartbeatResponse{}, err
	}
	co.mu.Lock()
	ws := co.touchWorker(req.Worker, req.Capability)
	ws.stats = req.Stats
	var resp HeartbeatResponse
	assigned := make(map[string]*clusterJob, len(ws.assigned))
	for id, cj := range ws.assigned {
		assigned[id] = cj
	}
	if req.Leaving {
		// Graceful goodbye: the worker drained its running jobs (their
		// results are already uploaded); anything still assigned migrates.
		ws.lost, ws.left = true, true
		for id, cj := range assigned {
			delete(ws.assigned, id)
			co.requeueJob(cj, fmt.Sprintf("worker %s draining", req.Worker))
		}
		co.mu.Unlock()
		co.wake() // a node fewer to place on
		return resp, nil
	}
	co.mu.Unlock()

	reported := make(map[string]bool, len(req.Jobs))
	for _, jp := range req.Jobs {
		reported[jp.JobID] = true
		cj, ok := assigned[jp.JobID]
		if !ok {
			// The worker is running a job the coordinator has not assigned
			// to it: a stale attempt surviving a coordinator restart (the
			// replayed job was requeued) or a partition heal (the job
			// migrated while this worker was unreachable). Its uploads
			// would be rejected anyway — tell it to cancel and free the
			// slot rather than burn it on a doomed attempt.
			resp.Cancel = append(resp.Cancel, jp.JobID)
			continue
		}
		cj.mu.Lock()
		if cj.state == serve.Running && cj.worker == req.Worker {
			cj.progress = jp.Progress
		}
		cj.mu.Unlock()
	}
	// Orphaned leases: a job granted to this worker but absent from its
	// heartbeat for longer than the liveness bound never started there (a
	// lease the worker refused — corrupt handoff, local drain race). A
	// healthy worker reports every running job each beat, so after
	// HeartbeatTimeout the absence is conclusive; requeue rather than hang.
	var orphans []*clusterJob
	for id, cj := range assigned {
		if reported[id] {
			continue
		}
		cj.mu.Lock()
		orphaned := cj.state == serve.Running && cj.worker == req.Worker &&
			time.Since(cj.granted) > co.cfg.HeartbeatTimeout
		cj.mu.Unlock()
		if orphaned {
			orphans = append(orphans, cj)
		}
	}
	if len(orphans) > 0 {
		co.mu.Lock()
		if ws, ok := co.workers[req.Worker]; ok {
			for _, cj := range orphans {
				delete(ws.assigned, cj.id)
				co.requeueJob(cj, fmt.Sprintf("lease never started on worker %s", req.Worker))
			}
		}
		co.mu.Unlock()
	}
	for id, cj := range assigned {
		cj.mu.Lock()
		if cj.cancelRequested && !cj.state.Terminal() {
			resp.Cancel = append(resp.Cancel, id)
		}
		cj.mu.Unlock()
	}
	sort.Strings(resp.Cancel)
	return resp, nil
}

// UploadCheckpoint records a job's latest all-healthy checkpoint from its
// assigned worker — the state the job migrates from if that worker is
// lost. Uploads from a worker the job is no longer assigned to (a reaped
// worker's late write racing the migration) or from a superseded lease
// attempt are rejected; deliveries duplicated or reordered by the
// network deduplicate on the checkpoint's iteration (its natural
// sequence number): anything not strictly newer than the retained
// snapshot is acknowledged as a no-op. Only the newest snapshot is
// retained — the one it supersedes is GCed from memory and blob store.
func (co *Coordinator) UploadCheckpoint(jobID, worker string, attempt int, data []byte) error {
	if err := co.ready(); err != nil {
		return err
	}
	cj, err := co.job(jobID)
	if err != nil {
		return err
	}
	ck, err := mcmc.DecodeCheckpoint(data)
	if err != nil {
		return fmt.Errorf("%w: %v", serve.ErrBadSpec, err)
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.worker != worker || cj.state.Terminal() {
		return fmt.Errorf("%w: job %s not assigned to worker %s", serve.ErrFinished, jobID, worker)
	}
	if attempt != 0 && attempt != cj.leases {
		return fmt.Errorf("%w: job %s checkpoint from superseded attempt %d (current %d)",
			serve.ErrFinished, jobID, attempt, cj.leases)
	}
	if cj.checkpoint != nil && ck.Iteration <= cj.checkpoint.Iteration {
		return nil // duplicate or stale delivery; keep the newer snapshot
	}
	return co.commit(cj, record{T: "ckpt", ID: cj.id, Worker: worker, Attempt: cj.leases,
		Iteration: ck.Iteration, FP: ck.Fingerprint(), blob: data, ckpt: ck})
}

// UploadResult records a job's terminal report from its assigned worker
// and finalizes the job. Same staleness rule as checkpoints: only the
// currently-assigned worker, on the current lease attempt, may finish a
// job. The attempt number is the upload's sequence key: a duplicated or
// retried delivery of an already-accepted result (same worker, same
// attempt) is acknowledged idempotently, while an upload from a
// superseded attempt — a stale local run finishing after the job
// migrated or the coordinator restarted — is rejected.
func (co *Coordinator) UploadResult(up ResultUpload) error {
	if err := co.ready(); err != nil {
		return err
	}
	cj, err := co.job(up.JobID)
	if err != nil {
		return err
	}
	if !up.Status.State.Terminal() {
		return fmt.Errorf("%w: result upload with non-terminal state %q", serve.ErrBadSpec, up.Status.State)
	}
	var draws []byte
	if up.DrawsB64 != "" {
		draws, err = base64.StdEncoding.DecodeString(up.DrawsB64)
		if err != nil {
			return fmt.Errorf("%w: bad draws encoding: %v", serve.ErrBadSpec, err)
		}
	}
	if err := co.acceptResult(cj, up, draws); err != nil {
		return err
	}
	co.mu.Lock()
	if ws, ok := co.workers[up.Worker]; ok {
		delete(ws.assigned, up.JobID)
	}
	co.mu.Unlock()
	co.wake() // a slot freed
	return nil
}

// acceptResult commits a result upload under the job lock. A duplicate
// delivery of the accepted upload (response lost, worker retried) is
// success; anything else racing a finished job is stale.
func (co *Coordinator) acceptResult(cj *clusterJob, up ResultUpload, draws []byte) error {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	switch {
	case cj.state.Terminal():
		if cj.worker == up.Worker && (up.Attempt == 0 || up.Attempt == cj.leases) {
			return nil
		}
		return fmt.Errorf("%w: job %s already finished", serve.ErrFinished, up.JobID)
	case cj.worker != up.Worker:
		return fmt.Errorf("%w: job %s not assigned to worker %s", serve.ErrFinished, up.JobID, up.Worker)
	case up.Attempt != 0 && up.Attempt != cj.leases:
		return fmt.Errorf("%w: job %s result from superseded attempt %d (current %d)",
			serve.ErrFinished, up.JobID, up.Attempt, cj.leases)
	}
	return co.commit(cj, record{T: "result", ID: cj.id, Worker: up.Worker, Attempt: cj.leases,
		Requeues: cj.requeues, Status: &up.Status, Payload: &up.Payload,
		FinishedNS: time.Now().UnixNano(), blob: draws})
}

// Draws returns a finished job's raw draw block (EncodeDraws bytes).
func (co *Coordinator) Draws(jobID string) ([]byte, error) {
	cj, err := co.job(jobID)
	if err != nil {
		return nil, err
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if !cj.state.Terminal() || cj.draws == nil {
		return nil, serve.ErrFinished
	}
	return cj.draws, nil
}

// Workers returns the fleet's capability documents, sorted by node name.
func (co *Coordinator) Workers() []serve.Capability {
	co.ready()
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]serve.Capability, 0, len(co.workers))
	for _, ws := range co.workers {
		if !ws.lost {
			out = append(out, ws.cap)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Shutdown drains the coordinator: admission stops, queued jobs cancel,
// running jobs get cancels on their workers' next heartbeats, and
// Shutdown waits (bounded by ctx) for every job to reach a terminal
// state before stopping the reaper.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	co.ready()
	co.mu.Lock()
	if !co.draining {
		co.draining = true
		co.queue.Close()
	}
	co.mu.Unlock()
	co.halt()

	for _, cj := range co.snapshot() {
		// A finished job needs no cancel; a failed commit has failed the
		// coordinator, which the wait below reports.
		_, _, _ = co.cancel(cj, "canceled: coordinator draining", "canceled by coordinator shutdown")
	}

	err := co.failure() // a failed coordinator finishes no more jobs: nothing to wait for
	for _, cj := range co.snapshot() {
		if err != nil {
			break
		}
		select {
		case <-cj.done:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	co.stopOnce.Do(func() { close(co.reapStop) })
	<-co.reapDone
	if co.store != nil {
		co.store.close()
	}
	return err
}

// reaper periodically declares silent workers lost and migrates their
// jobs.
func (co *Coordinator) reaper() {
	defer close(co.reapDone)
	// A durable coordinator has no workers to reap until replay finishes.
	select {
	case <-co.reapStop:
		return
	case <-co.recovered:
	}
	t := time.NewTicker(co.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-co.reapStop:
			return
		case <-t.C:
		}
		now := time.Now()
		lost := false
		co.mu.Lock()
		for name, ws := range co.workers {
			if ws.lost || now.Sub(ws.lastSeen) <= co.cfg.HeartbeatTimeout {
				continue
			}
			ws.lost, lost = true, true
			co.reaped.Add(1)
			for id, cj := range ws.assigned {
				delete(ws.assigned, id)
				co.requeueJob(cj, fmt.Sprintf("worker %s lost (no heartbeat for %v)", name, co.cfg.HeartbeatTimeout))
			}
		}
		co.mu.Unlock()
		if lost {
			co.wake() // a node fewer to place on
		}
	}
}

// requeueJob migrates a job off a lost or draining worker: back to the
// front of the queue (Requeue, exempt from the admission bound) to resume
// from its last uploaded checkpoint on the next eligible worker. Caller
// holds co.mu; requeueJob takes cj.mu (the documented lock order). No
// caller can act on a failed commit: it has failed the coordinator,
// which /readyz reports.
func (co *Coordinator) requeueJob(cj *clusterJob, reason string) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.state.Terminal() {
		return
	}
	if cj.cancelRequested {
		_ = co.commit(cj, cj.final(serve.Canceled, cj.cancelCause, cj.requeues))
		return
	}
	requeues, resumeAt := cj.requeues+1, cj.resumeAt()
	co.migrations.Add(1)
	r := record{T: "requeue", ID: cj.id, ResumeAt: resumeAt, Leases: cj.leases, Requeues: requeues,
		Reason: fmt.Sprintf("%s; requeued to resume from iteration %d", reason, resumeAt)}
	switch {
	case requeues > co.cfg.MaxMigrations:
		r = cj.final(serve.Failed, fmt.Sprintf("migration budget exhausted after %d requeues (%s)", requeues, reason), requeues)
	case co.draining: // the queue is closed
		r = cj.final(serve.Canceled, "canceled: coordinator draining with migration pending", requeues)
	}
	if co.commit(cj, r) == nil && r.T == "requeue" {
		_ = co.queue.Requeue(cj) // cannot fail: only a drain closes the queue, under co.mu
		co.wake()                // a job to place
	}
}

// touchWorker upserts a worker's registration. Caller holds co.mu. A
// reaped worker that comes back (it was slow, not dead) re-registers
// fresh: its old assignments already migrated, and its late uploads for
// them are rejected by the assignment checks.
func (co *Coordinator) touchWorker(name string, cap serve.Capability) *workerState {
	ws, ok := co.workers[name]
	if !ok || ws.lost {
		ws = &workerState{assigned: make(map[string]*clusterJob)}
		co.workers[name] = ws
		co.wake() // a node more to place on
	}
	ws.cap = cap
	ws.lastSeen = time.Now()
	return ws
}

// changeSignal returns the channel the next wake closes. A parked lease
// takes it before evaluating, so a transition that lands between the
// evaluation and the wait has already closed the channel it waits on.
func (co *Coordinator) changeSignal() <-chan struct{} {
	co.sigMu.Lock()
	defer co.sigMu.Unlock()
	return co.changed
}

// wake releases every parked lease request to evaluate again. Called
// once the change it announces is made — under the lock that guards the
// change (the woken evaluation queues behind it) or after its release.
func (co *Coordinator) wake() {
	co.sigMu.Lock()
	close(co.changed)
	co.changed = make(chan struct{})
	co.sigMu.Unlock()
}

// halt stops lease parking for good (drain, Kill) and releases what is
// parked, so an HTTP server's Close never waits out a hold.
func (co *Coordinator) halt() {
	co.halted.Store(true)
	co.wake()
}

// job resolves an ID, blocking until recovery has rebuilt the job table.
// Reads stay served after a journal failure — the table holds only
// durable transitions — so only an ID the table lacks reports it.
func (co *Coordinator) job(id string) (*clusterJob, error) {
	err := co.ready()
	co.mu.Lock()
	defer co.mu.Unlock()
	if cj, ok := co.jobs[id]; ok {
		return cj, nil
	}
	if err != nil {
		return nil, err
	}
	return nil, serve.ErrNotFound
}

// snapshot returns the jobs in submission order.
func (co *Coordinator) snapshot() []*clusterJob {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([]*clusterJob, 0, len(co.order))
	for _, id := range co.order {
		out = append(out, co.jobs[id])
	}
	return out
}

// statusLocked snapshots the job. Caller holds cj.mu. Once a worker
// uploaded the terminal status, that richer view (R̂ trace, fault
// records) wins, relabeled with the coordinator's job ID and fleet
// placement.
func (cj *clusterJob) statusLocked() serve.JobStatus {
	if cj.finalStatus != nil {
		st := *cj.finalStatus
		st.ID = cj.id
		st.State = cj.state
		st.Node = cj.worker
		st.Spec = cj.spec
		if cj.placement != nil {
			p := *cj.placement
			st.Placement = &p
		}
		if cj.errMsg != "" {
			st.Error = cj.errMsg
		}
		st.Attempts = cj.leases
		st.ResumedFrom = cj.resumedFrom
		return st
	}
	st := serve.JobStatus{
		ID:          cj.id,
		State:       cj.state,
		Spec:        cj.spec,
		Error:       cj.errMsg,
		Node:        cj.worker,
		SubmittedAt: cj.submitted,
		Attempts:    cj.leases,
		ResumedFrom: cj.resumedFrom,
		Progress:    cj.progress,
		Budget:      cj.budget,
	}
	if !cj.started.IsZero() {
		t := cj.started
		st.StartedAt = &t
	}
	if !cj.finished.IsZero() {
		t := cj.finished
		st.FinishedAt = &t
	}
	if cj.placement != nil {
		p := *cj.placement
		st.Placement = &p
	}
	return st
}
