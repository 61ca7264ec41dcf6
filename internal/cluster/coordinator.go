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
// never the reverse.
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
	// method. recoverErr is set before recovered closes. jinfo (guarded
	// by mu) is the replay report surfaced on /readyz.
	store      *durableStore
	recovering atomic.Bool
	recovered  chan struct{}
	recoverErr error
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
	var pred *sched.Predictor
	switch {
	case cfg.Predictor != nil:
		pred = cfg.Predictor
		co.predNote = fmt.Sprintf("pre-fitted predictor, LLC-bound above %.0f KB (scaled per node LLC)", pred.ThresholdKB)
	case len(cfg.CalibrationPoints) > 0:
		p, err := sched.Fit(cfg.CalibrationPoints)
		if err != nil {
			co.predNote = err.Error()
		} else {
			pred = p
			co.predNote = fmt.Sprintf("fitted on %d points, LLC-bound above %.0f KB (scaled per node LLC)",
				len(cfg.CalibrationPoints), p.ThresholdKB)
		}
	default:
		co.predNote = "no calibration provided"
	}
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
	cj := &clusterJob{
		id:           fmt.Sprintf("cjob-%06d", co.seq+1),
		spec:         norm,
		budget:       budget,
		modeledBytes: w.ModeledDataBytes(),
		submitted:    time.Now(),
		state:        serve.Queued,
		done:         make(chan struct{}),
	}
	// Snapshot the initial status while the job is still unshared: once
	// offered, a concurrent lease may grant it before this returns.
	st := cj.statusLocked()
	if err := co.queue.Offer(cj); err != nil {
		return serve.JobStatus{}, err
	}
	// Journal the admission before acknowledging it; a failed append
	// rolls the job back out so the client's error is honest.
	spec2 := cj.spec
	if err := co.logRecord(record{T: "admit", ID: cj.id, Spec: &spec2, Budget: cj.budget,
		ModeledBytes: cj.modeledBytes, SubmittedNS: cj.submitted.UnixNano()}); err != nil {
		co.queue.PopWhere(func(j *clusterJob) bool { return j == cj })
		return serve.JobStatus{}, err
	}
	co.seq++
	co.jobs[cj.id] = cj
	co.order = append(co.order, cj.id)
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

// GetResult returns a job's uploaded result payload; ready=false while
// the job is still queued, running, or mid-migration.
func (co *Coordinator) GetResult(id string) (serve.ResultPayload, bool, error) {
	cj, err := co.job(id)
	if err != nil {
		return serve.ResultPayload{}, false, err
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if !cj.state.Terminal() || cj.result == nil {
		return serve.ResultPayload{ID: cj.id, State: cj.state}, false, nil
	}
	p := *cj.result
	p.ID = cj.id
	p.State = cj.state
	return p, true, nil
}

// CancelJob cancels a job. Queued jobs are pulled out of the queue and
// finalized immediately; running jobs get the cancel on their worker's
// next heartbeat and finalize when the worker uploads the canceled
// result.
func (co *Coordinator) CancelJob(id string) (serve.JobStatus, error) {
	cj, err := co.job(id)
	if err != nil {
		return serve.JobStatus{}, err
	}
	// Pull it from the queue first (no-op if a worker already holds it or
	// it never re-enters); then finalize or flag under the job lock.
	co.queue.PopWhere(func(j *clusterJob) bool { return j == cj })
	cj.mu.Lock()
	defer cj.mu.Unlock()
	switch {
	case cj.state.Terminal():
		return cj.statusLocked(), serve.ErrFinished
	case cj.state == serve.Queued:
		cj.cancelRequested = true
		cj.cancelCause = "canceled by client while queued"
		co.finishJob(cj, serve.Canceled, cj.cancelCause)
		co.wake() // the queue changed
	default: // running on a worker
		if !cj.cancelRequested {
			cj.cancelRequested = true
			cj.cancelCause = "canceled by client while running"
			// Journal the intent: a restart mid-cancel must not resurrect
			// the job as runnable.
			co.logRecord(record{T: "cancel", ID: cj.id, Cause: cj.cancelCause})
		}
	}
	return cj.statusLocked(), nil
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
	} else if co.recoverErr != nil {
		c.Status, c.State = "recovery-failed", "recovering"
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

	var assign sched.FleetAssignment
	cj, ok := co.queue.PopWhere(func(j *clusterJob) bool {
		j.mu.Lock()
		queued := j.state == serve.Queued && !j.cancelRequested
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

	cj.mu.Lock()
	cj.worker = req.Worker
	cj.granted = time.Now()
	cj.state = serve.Running
	cj.leases++
	if cj.started.IsZero() {
		cj.started = time.Now()
	}
	pl := &serve.PlacementDecision{
		Node:           assign.Node.ID,
		Platform:       req.Capability.Platform,
		ModeledDataKB:  assign.ModeledDataKB,
		PredictedMPKI:  assign.PredictedMPKI,
		LLCBound:       assign.LLCBound,
		FrequencyFirst: assign.FrequencyFirst,
		Reason:         assign.Reason,
	}
	cj.placement = pl
	lease := &Lease{JobID: cj.id, Spec: cj.spec, Attempt: cj.leases}
	cj.resumedFrom = 0
	if cj.checkpoint != nil {
		lease.CheckpointB64 = base64.StdEncoding.EncodeToString(cj.checkpoint.Encode())
		lease.ResumeIteration = cj.checkpoint.Iteration
		lease.CheckpointFP = cj.checkpoint.Fingerprint()
		cj.resumedFrom = cj.checkpoint.Iteration
	}
	rec := record{T: "lease", ID: cj.id, Worker: req.Worker, Attempt: cj.leases,
		GrantedNS: cj.granted.UnixNano(), ResumeAt: cj.resumedFrom}
	cj.mu.Unlock()

	// Journal the grant before the worker learns of it: a coordinator
	// killed after this append replays the lease (and requeues the job);
	// killed before it, the worker never saw the lease either way.
	if err := co.logRecord(rec); err != nil {
		co.mu.Lock()
		co.requeueJob(cj, "journal append failed at lease grant")
		co.mu.Unlock()
		return LeaseResponse{}, err
	}

	co.mu.Lock()
	if w, ok := co.workers[req.Worker]; ok {
		w.assigned[cj.id] = cj
	}
	co.mu.Unlock()
	co.wake() // the free-node set shrank: the next queued job may place elsewhere now
	return LeaseResponse{Lease: lease}, nil
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
	addr, err := co.putBlob(data)
	if err != nil {
		return err
	}
	if err := co.logRecord(record{T: "ckpt", ID: cj.id, Worker: worker, Attempt: cj.leases,
		Iteration: ck.Iteration, FP: ck.Fingerprint(), Addr: addr}); err != nil {
		return err
	}
	co.dropCheckpointLocked(cj) // GC the superseded snapshot
	cj.checkpoint = ck
	cj.ckptAddr = addr
	return nil
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
	cj.mu.Lock()
	if cj.state.Terminal() {
		// Duplicate delivery of the accepted upload (response lost, worker
		// retried) is success; anything else racing a finished job is stale.
		dup := cj.worker == up.Worker && (up.Attempt == 0 || up.Attempt == cj.leases)
		cj.mu.Unlock()
		if dup {
			return nil
		}
		return fmt.Errorf("%w: job %s already finished", serve.ErrFinished, up.JobID)
	}
	if cj.worker != up.Worker {
		cj.mu.Unlock()
		return fmt.Errorf("%w: job %s not assigned to worker %s", serve.ErrFinished, up.JobID, up.Worker)
	}
	if up.Attempt != 0 && up.Attempt != cj.leases {
		cj.mu.Unlock()
		return fmt.Errorf("%w: job %s result from superseded attempt %d (current %d)",
			serve.ErrFinished, up.JobID, up.Attempt, cj.leases)
	}
	st := up.Status
	cj.finalStatus = &st
	p := up.Payload
	cj.result = &p
	cj.draws = draws
	cj.progress = st.Progress
	cj.finalize(st.State, st.Error)
	co.dropCheckpointLocked(cj) // terminal: nothing left to resume from
	if co.store != nil {
		// Draws blob first, then the result record referencing it; the
		// append is the acknowledgment point.
		var addr string
		if len(draws) > 0 {
			var berr error
			if addr, berr = co.putBlob(draws); berr != nil {
				cj.mu.Unlock()
				return berr
			}
		}
		cj.drawsAddr = addr
		if lerr := co.logRecord(record{T: "result", ID: cj.id, Worker: up.Worker,
			Attempt: cj.leases, Requeues: cj.requeues, Status: cj.finalStatus,
			Payload: cj.result, DrawsAddr: addr,
			FinishedNS: cj.finished.UnixNano()}); lerr != nil {
			cj.mu.Unlock()
			return lerr
		}
	}
	cj.mu.Unlock()

	co.mu.Lock()
	if ws, ok := co.workers[up.Worker]; ok {
		delete(ws.assigned, up.JobID)
	}
	co.mu.Unlock()
	co.wake() // a slot freed
	return nil
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
		cj.mu.Lock()
		switch {
		case cj.state.Terminal():
		case cj.state == serve.Queued:
			co.finishJob(cj, serve.Canceled, "canceled: coordinator draining")
		default:
			if !cj.cancelRequested {
				cj.cancelRequested = true
				cj.cancelCause = "canceled by coordinator shutdown"
				co.logRecord(record{T: "cancel", ID: cj.id, Cause: cj.cancelCause})
			}
		}
		cj.mu.Unlock()
	}

	var err error
wait:
	for _, cj := range co.snapshot() {
		select {
		case <-cj.done:
		case <-ctx.Done():
			err = ctx.Err()
			break wait
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
// holds co.mu; requeueJob takes cj.mu (the documented lock order).
func (co *Coordinator) requeueJob(cj *clusterJob, reason string) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	if cj.state.Terminal() {
		return
	}
	if cj.cancelRequested {
		co.finishJob(cj, serve.Canceled, cj.cancelCause)
		return
	}
	cj.requeues++
	co.migrations.Add(1)
	if cj.requeues > co.cfg.MaxMigrations {
		co.finishJob(cj, serve.Failed, fmt.Sprintf(
			"migration budget exhausted after %d requeues (%s)", cj.requeues, reason))
		return
	}
	resumeAt := 0
	if cj.checkpoint != nil {
		resumeAt = cj.checkpoint.Iteration
	}
	cj.worker = ""
	cj.state = serve.Queued
	cj.progress = resumeAt
	cj.errMsg = fmt.Sprintf("%s; requeued to resume from iteration %d", reason, resumeAt)
	if err := co.queue.Requeue(cj); err != nil {
		co.finishJob(cj, serve.Canceled, "canceled: coordinator draining with migration pending")
		return
	}
	co.logRecord(record{T: "requeue", ID: cj.id, Reason: cj.errMsg, ResumeAt: resumeAt,
		Leases: cj.leases, Requeues: cj.requeues})
	co.wake() // a job to place
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
func (co *Coordinator) job(id string) (*clusterJob, error) {
	if err := co.ready(); err != nil {
		return nil, err
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if cj, ok := co.jobs[id]; ok {
		return cj, nil
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

// finalize moves the job to a terminal state. Caller holds cj.mu.
func (cj *clusterJob) finalize(state serve.JobState, msg string) {
	if cj.state.Terminal() {
		return
	}
	cj.state = state
	cj.errMsg = msg
	cj.finished = time.Now()
	close(cj.done)
}

// statusLocked snapshots the job. Caller holds cj.mu (or the job is
// freshly built and unshared). Once a worker uploaded the terminal
// status, that richer view (R̂ trace, fault records)
// wins, relabeled with the coordinator's job ID and fleet placement.
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
