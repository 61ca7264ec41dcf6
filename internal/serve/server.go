package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bayessuite/internal/diag"
	"bayessuite/internal/elide"
	"bayessuite/internal/hw"
	"bayessuite/internal/mathx"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/perf"
	"bayessuite/internal/rng"
	"bayessuite/internal/sched"
	"bayessuite/internal/workloads"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull: the admission queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining: the server is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: server draining")
	// ErrNotFound: no such job (HTTP 404).
	ErrNotFound = errors.New("serve: job not found")
	// ErrFinished: the job already reached a terminal state (HTTP 409).
	ErrFinished = errors.New("serve: job already finished")
	// ErrBadSpec: the job spec failed validation (HTTP 400).
	ErrBadSpec = errors.New("serve: bad job spec")
)

// Config configures a Server. Zero values take the documented defaults.
type Config struct {
	// QueueCap bounds the admission queue (default 64). Submissions
	// beyond it fail with ErrQueueFull — backpressure, not buffering.
	QueueCap int
	// Workers is the number of concurrent job runners (default 2; each
	// job itself runs its chains on parallel goroutines).
	Workers int
	// Node labels this server's stats, job statuses, and capability
	// document (default "local"). Cluster workers set it to their fleet
	// name so the coordinator's aggregated stats stay attributable.
	Node string
	// PinnedPlatform, when non-nil, pins every job's placement to one
	// simulated platform instead of running the two-platform scheduler —
	// a cluster worker *is* one platform; the fleet-level choice already
	// happened at the coordinator. The capability document then reports
	// the role "worker" instead of "node".
	PinnedPlatform *hw.Platform
	// DefaultTimeout bounds each job's running time when the spec does
	// not set one (default 0: no timeout).
	DefaultTimeout time.Duration
	// Predictor, when non-nil, is a pre-fitted LLC predictor and wins
	// over CalibrationPoints.
	Predictor *sched.Predictor
	// CalibrationPoints, when non-empty (and Predictor is nil), are
	// fitted at construction. A fit failing with sched.ErrNoLinearRegime
	// switches the server to frequency-first placement instead of
	// trusting a degenerate slope.
	CalibrationPoints []sched.Point

	// CheckpointEvery is the sampling checkpoint cadence in iterations
	// (default 50, matching the R̂ check interval). A faulted job loses at
	// most this much per-chain work on retry.
	CheckpointEvery int
	// MaxRetries bounds fault-triggered re-executions per job (default 2;
	// -1 disables retries). Retries fire only when every chain of a run
	// was quarantined — a partial fault still yields a usable result over
	// the surviving chains.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry (default
	// 50ms); it doubles per attempt, capped at RetryMaxBackoff (default
	// 2s), with deterministic ±25% jitter derived from the job seed.
	RetryBackoff    time.Duration
	RetryMaxBackoff time.Duration

	// OnCheckpoint, when non-nil, observes every checkpoint a job takes,
	// after it is recorded as the job's retry point. Cluster workers use
	// it to stream checkpoints to the coordinator so a job can migrate to
	// another worker if this one is lost. Called from the sampling
	// coordination loop — it must not block longer than one checkpoint
	// interval is worth.
	OnCheckpoint func(job *Job, ck *mcmc.Checkpoint)
	// InjectFaultHook, when non-nil, supplies the mcmc fault hook for each
	// sampling attempt (attempt is 1-based). It exists for the
	// fault-injection harness (internal/fault) and the cluster worker-loss
	// matrix; production configs leave it nil.
	InjectFaultHook func(job *Job, attempt int) func(chain, iter int) mcmc.FaultAction
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.Node == "" {
		c.Node = "local"
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 50
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RetryMaxBackoff == 0 {
		c.RetryMaxBackoff = 2 * time.Second
	}
	return c
}

// Server is the job-queue inference service: bounded admission, a worker
// pool that places and runs jobs, cancellation, and graceful drain.
type Server struct {
	cfg Config

	pred     *sched.Predictor // nil → frequency-first fallback
	schedr   *sched.Scheduler
	predNote string

	queue *Queue[*Job]
	wg    sync.WaitGroup

	// Cumulative fault/retry counters (see Stats).
	chainFaults atomic.Int64
	retries     atomic.Int64
	panics      atomic.Int64

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*Job
	order    []string

	// beforeRun, when non-nil, is called by a worker after claiming a
	// job and before sampling starts. Test hook: lets the queue tests
	// hold a worker busy deterministically.
	beforeRun func(*Job)
}

// NewServer builds the server, fits the predictor if calibration points
// were supplied, and starts the worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		queue: NewQueue[*Job](cfg.QueueCap),
		jobs:  make(map[string]*Job),
	}
	switch {
	case cfg.Predictor != nil:
		s.pred = cfg.Predictor
		s.predNote = fmt.Sprintf("pre-fitted predictor, LLC-bound above %.0f KB", s.pred.ThresholdKB)
	case len(cfg.CalibrationPoints) > 0:
		pred, err := sched.Fit(cfg.CalibrationPoints)
		if err != nil {
			// No linear regime (or otherwise unusable fit): place
			// frequency-first rather than schedule on noise (§V-A).
			s.predNote = err.Error()
		} else {
			s.pred = pred
			s.predNote = fmt.Sprintf("fitted on %d points, LLC-bound above %.0f KB",
				len(cfg.CalibrationPoints), pred.ThresholdKB)
		}
	default:
		s.predNote = "no calibration provided"
	}
	if s.pred != nil {
		s.schedr = sched.NewScheduler(s.pred)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// FrequencyFirst reports whether the server is placing jobs without a
// predictor, and why.
func (s *Server) FrequencyFirst() (bool, string) { return s.pred == nil, s.predNote }

// Normalize validates spec and fills defaults — the admission-time
// canonicalization shared by the single-process server and the cluster
// coordinator. The returned spec has every defaulted field materialized
// (equal normalized specs ⇒ bit-identical results on any node); the int
// is the per-chain iteration budget.
func Normalize(spec JobSpec) (JobSpec, int, error) {
	norm, budget, _, err := normalize(spec)
	return norm, budget, err
}

// normalize validates spec and fills defaults, returning the normalized
// spec, the iteration budget, and the parsed sampler kind.
func normalize(spec JobSpec) (JobSpec, int, mcmc.SamplerKind, error) {
	known := false
	for _, n := range workloads.Names() {
		if n == spec.Workload {
			known = true
			break
		}
	}
	if !known {
		return spec, 0, 0, fmt.Errorf("%w: unknown workload %q", ErrBadSpec, spec.Workload)
	}
	if spec.Scale == 0 {
		spec.Scale = 1
	}
	if spec.Scale < 0 || spec.Scale > 1 {
		return spec, 0, 0, fmt.Errorf("%w: scale %g outside (0, 1]", ErrBadSpec, spec.Scale)
	}
	if spec.Chains == 0 {
		spec.Chains = 4
	}
	if spec.Chains < 1 || spec.Chains > 64 {
		return spec, 0, 0, fmt.Errorf("%w: chains %d outside [1, 64]", ErrBadSpec, spec.Chains)
	}
	if spec.Iterations < 0 || spec.Iterations > 1<<20 {
		return spec, 0, 0, fmt.Errorf("%w: iterations %d outside [0, 2^20]", ErrBadSpec, spec.Iterations)
	}
	if spec.TimeoutSec < 0 {
		return spec, 0, 0, fmt.Errorf("%w: negative timeout", ErrBadSpec)
	}
	if spec.Sampler == "" {
		spec.Sampler = "nuts"
	}
	kind, err := mcmc.ParseSampler(spec.Sampler)
	if err != nil {
		return spec, 0, 0, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	budget := spec.Iterations
	if budget == 0 {
		info, err := workloads.Defaults(spec.Workload)
		if err != nil {
			return spec, 0, 0, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		budget = info.Iterations
		spec.Iterations = budget
	}
	return spec, budget, kind, nil
}

// Submit validates and admits a job. It fails fast with ErrQueueFull when
// the queue is at capacity and ErrDraining during shutdown.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitWithCheckpoint(spec, nil)
}

// SubmitWithCheckpoint admits a job that resumes sampling from ck instead
// of initializing fresh chains — the cluster worker's entry point for a
// job migrating off a lost node. The checkpoint must have been taken by a
// run of the same normalized spec (sampler, chains, budget, seed); the
// resumed run is bit-identical, draw for draw, to an uninterrupted run of
// that spec. A nil ck is a plain Submit.
func (s *Server) SubmitWithCheckpoint(spec JobSpec, ck *mcmc.Checkpoint) (*Job, error) {
	norm, budget, kind, err := normalize(spec)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		switch {
		case ck.Sampler != kind:
			return nil, fmt.Errorf("%w: checkpoint sampler %v, spec wants %v", ErrBadSpec, ck.Sampler, kind)
		case ck.NumChains != norm.Chains:
			return nil, fmt.Errorf("%w: checkpoint has %d chains, spec wants %d", ErrBadSpec, ck.NumChains, norm.Chains)
		case ck.Iterations != budget:
			return nil, fmt.Errorf("%w: checkpoint budget %d, spec wants %d", ErrBadSpec, ck.Iterations, budget)
		case ck.Seed != norm.Seed:
			return nil, fmt.Errorf("%w: checkpoint seed %d, spec wants %d", ErrBadSpec, ck.Seed, norm.Seed)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	job := &Job{
		id:         fmt.Sprintf("job-%06d", s.seq+1),
		spec:       norm,
		budget:     budget,
		node:       s.cfg.Node,
		submitted:  time.Now(),
		state:      Queued,
		checkpoint: ck,
		done:       make(chan struct{}),
	}
	if err := s.queue.Offer(job); err != nil {
		return nil, err
	}
	s.seq++
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	return job, nil
}

// Job returns the job with the given id.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	return nil, ErrNotFound
}

// Cancel cancels a job. Queued jobs transition to Canceled immediately
// (the worker skips them when popped); running jobs have their sampling
// context canceled and finalize with the draws completed so far; jobs
// awaiting a retry have their backoff timer stopped and cancel in place.
func (s *Server) Cancel(id string) (JobStatus, error) {
	job, err := s.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	job.mu.Lock()
	switch {
	case job.state == Queued:
		job.cancelRequested = true
		job.cancelCause = "canceled by client while queued"
		job.errMsg = job.cancelCause
		job.state = Canceled
		job.finishLocked()
	case job.state == Retrying:
		job.cancelRequested = true
		job.cancelCause = "canceled by client while awaiting retry"
		if job.retryTimer != nil {
			job.retryTimer.Stop()
			job.retryTimer = nil
		}
		job.errMsg = job.cancelCause
		job.state = Canceled
		job.finishLocked()
	case job.state == Running:
		if !job.cancelRequested {
			job.cancelRequested = true
			job.cancelCause = "canceled by client while running"
			if job.cancelRun != nil {
				job.cancelRun()
			}
		}
	default:
		job.mu.Unlock()
		return job.Status(), ErrFinished
	}
	job.mu.Unlock()
	return job.Status(), nil
}

// Shutdown drains the server: admission stops, jobs still queued are
// canceled, jobs waiting out a retry backoff are canceled (their timers
// stopped, so drain never waits on a backoff), and jobs already running
// complete normally. If ctx expires first, running jobs are canceled
// (finalizing with partial results) and Shutdown still waits for the
// workers before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.Close()
	}
	s.mu.Unlock()

	// Abandon pending retries: a Retrying job holds no worker, so the
	// WaitGroup below would not cover it and its timer would fire into a
	// closed queue. (A timer that already fired races harmlessly —
	// requeue re-checks the state and draining flag.)
	for _, job := range s.snapshot() {
		job.mu.Lock()
		if job.state == Retrying {
			if job.retryTimer != nil {
				job.retryTimer.Stop()
				job.retryTimer = nil
			}
			job.state = Canceled
			job.errMsg = "canceled: server draining with retry pending"
			job.finishLocked()
		}
		job.mu.Unlock()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	for _, job := range s.snapshot() {
		job.mu.Lock()
		if job.state == Running && !job.cancelRequested {
			job.cancelRequested = true
			job.cancelCause = "canceled by server shutdown"
			if job.cancelRun != nil {
				job.cancelRun()
			}
		}
		job.mu.Unlock()
	}
	<-done
	return ctx.Err()
}

// snapshot returns the jobs in submission order.
func (s *Server) snapshot() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Jobs returns a status snapshot of every job in submission order.
func (s *Server) Jobs() []JobStatus {
	jobs := s.snapshot()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Stats derives the live service statistics from job states, so the
// accounting cannot drift from the lifecycle transitions.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()

	st := Stats{
		Node:            s.cfg.Node,
		QueueCap:        s.cfg.QueueCap,
		Draining:        draining,
		PredictorNote:   s.predNote,
		ChainFaults:     s.chainFaults.Load(),
		Retries:         s.retries.Load(),
		PanicsRecovered: s.panics.Load(),
	}
	if s.pred != nil {
		st.PredictorThresholdKB = s.pred.ThresholdKB
	} else {
		st.FrequencyFirst = true
	}
	perPlat := make(map[string]*PlatformStats, len(hw.Platforms))
	for _, p := range hw.Platforms {
		perPlat[p.Codename] = &PlatformStats{Platform: p.Codename, Cores: p.Cores}
	}
	for _, job := range s.snapshot() {
		job.mu.Lock()
		state, placement, chains := job.state, job.placement, job.spec.Chains
		st.SavedIterations += job.savedIters
		st.SavedJoules += job.savedJoules
		job.mu.Unlock()
		switch state {
		case Queued:
			st.QueueDepth++
		case Running:
			st.Running++
		case Retrying:
			st.Retrying++
		case Done:
			st.Done++
		case Failed:
			st.Failed++
		case Canceled:
			st.Canceled++
		}
		if placement == nil {
			continue
		}
		ps, ok := perPlat[placement.Platform]
		if !ok {
			continue
		}
		ps.TotalJobs++
		if state == Running {
			ps.RunningJobs++
			cores := chains
			if cores > ps.Cores {
				cores = ps.Cores
			}
			ps.CoresInUse += cores
		}
	}
	for _, ps := range perPlat {
		if ps.CoresInUse > ps.Cores {
			ps.CoresInUse = ps.Cores // oversubscribed: report saturation
		}
		ps.Utilization = float64(ps.CoresInUse) / float64(ps.Cores)
		st.Platforms = append(st.Platforms, *ps)
	}
	sort.Slice(st.Platforms, func(i, j int) bool { return st.Platforms[i].Platform < st.Platforms[j].Platform })
	return st
}

// Capability is the server's self-description for the extended /readyz
// probe and (when embedded in a cluster worker) for leases and heartbeats.
func (s *Server) Capability() Capability {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	running := 0
	for _, job := range s.snapshot() {
		job.mu.Lock()
		if job.state == Running {
			running++
		}
		job.mu.Unlock()
	}
	// A pinned worker is one platform; an unpinned node fronts the paper's
	// two-platform box, and advertises its high-frequency half (the
	// fallback placement target) as the representative hardware.
	plat, role := hw.Skylake, "node"
	if s.cfg.PinnedPlatform != nil {
		plat, role = *s.cfg.PinnedPlatform, "worker"
	}
	c := Capability{
		Node:         s.cfg.Node,
		Role:         role,
		Status:       "ready",
		State:        "ready",
		Platform:     plat.Codename,
		LLCBytes:     plat.LLCBytes,
		FrequencyGHz: plat.TurboGHz,
		Cores:        plat.Cores,
		Slots:        s.cfg.Workers,
		Running:      running,
		QueueDepth:   s.queue.Len(),
		KernelISA:    mathx.VectorISA(),
		Draining:     draining,
	}
	if draining {
		c.Status = "draining"
	}
	if c.Slots > 0 {
		c.Occupancy = float64(c.Running) / float64(c.Slots)
	}
	return c
}

// SubmitJob, GetJob, GetResult, CancelJob, ListJobs, and ServiceStats
// adapt the Server to the API interface the HTTP layer is written
// against, so the single-process server and the cluster coordinator share
// one handler.

func (s *Server) SubmitJob(spec JobSpec) (JobStatus, error) {
	job, err := s.Submit(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return job.Status(), nil
}

func (s *Server) GetJob(id string) (JobStatus, error) {
	job, err := s.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	return job.Status(), nil
}

func (s *Server) GetResult(id string) (ResultPayload, bool, error) {
	job, err := s.Job(id)
	if err != nil {
		return ResultPayload{}, false, err
	}
	payload, ready := job.Result()
	return payload, ready, nil
}

func (s *Server) CancelJob(id string) (JobStatus, error) { return s.Cancel(id) }

func (s *Server) ListJobs() []JobStatus { return s.Jobs() }

func (s *Server) ServiceStats() any { return s.Stats() }

// worker is one pool goroutine: it pops admitted jobs until the queue is
// closed, skipping jobs canceled while queued and canceling (not running)
// jobs popped after drain began.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(job)
	}
}

// place decides a job's platform: the predictor's LLC-bound
// classification when available, frequency-first otherwise.
func (s *Server) place(name string, modeledBytes int) PlacementDecision {
	kb := float64(modeledBytes) / 1024
	if p := s.cfg.PinnedPlatform; p != nil {
		// Cluster worker: this process *is* one platform; the fleet-level
		// placement already happened at the coordinator.
		return PlacementDecision{
			Platform:      p.Codename,
			Processor:     p.Processor,
			Node:          s.cfg.Node,
			ModeledDataKB: kb,
			Reason: fmt.Sprintf("pinned to %s: worker %s is a single-platform node (fleet placement happened at the coordinator)",
				p.Codename, s.cfg.Node),
		}
	}
	if s.pred == nil {
		return PlacementDecision{
			Platform:       hw.Skylake.Codename,
			Processor:      hw.Skylake.Processor,
			ModeledDataKB:  kb,
			FrequencyFirst: true,
			Reason: fmt.Sprintf("frequency-first fallback (%s): without a trustworthy LLC predictor every job goes to the high-frequency %s",
				s.predNote, hw.Skylake.Codename),
		}
	}
	a := s.schedr.Assign(name, modeledBytes)
	rel := "below"
	if a.LLCBound {
		rel = "at or above"
	}
	return PlacementDecision{
		Platform:      a.Platform.Codename,
		Processor:     a.Platform.Processor,
		ModeledDataKB: a.ModeledDataKB,
		PredictedMPKI: a.PredictedMPKI,
		LLCBound:      a.LLCBound,
		Reason: fmt.Sprintf("modeled data %.1f KB is %s the %.0f KB LLC-bound threshold (predicted %.2f MPKI at 4 cores) → %s",
			a.ModeledDataKB, rel, s.pred.ThresholdKB, a.PredictedMPKI, a.Platform.Codename),
	}
}

// traceRule wraps the elision detector so every convergence check lands
// in the job's R̂ trajectory as it happens; when elision is disabled for
// the job the trace still accumulates but never stops the run.
type traceRule struct {
	det  *elide.Detector
	job  *Job
	stop bool
}

func (t *traceRule) ShouldStop(chains []*mcmc.Samples, iter int) bool {
	stop := t.det.ShouldStop(chains, iter)
	cp := t.det.Trace[len(t.det.Trace)-1]
	t.job.mu.Lock()
	t.job.rhat = append(t.job.rhat, RHatPoint{Iteration: cp.Iteration, RHat: cp.RHat})
	t.job.mu.Unlock()
	return stop && t.stop
}

// runJob executes one claimed job end to end: placement, sampling with
// live progress and convergence tracking, then finalization. Any panic
// escaping the job (a buggy workload kernel outside the samplers'
// per-chain recovery, a summarization bug) is converted into the job's
// failure record instead of crashing the worker pool.
func (s *Server) runJob(job *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.finalizeFailed(job, fmt.Sprintf("worker panic: %v\n%s", r, debug.Stack()))
		}
	}()
	s.runJobLocked(job)
}

// runJobLocked is runJob minus the panic barrier.
func (s *Server) runJobLocked(job *Job) {
	s.mu.Lock()
	draining := s.draining
	hook := s.beforeRun
	s.mu.Unlock()

	job.mu.Lock()
	if job.state != Queued { // canceled while queued
		job.mu.Unlock()
		return
	}
	if draining {
		job.state = Canceled
		job.errMsg = "canceled: server draining"
		job.finishLocked()
		job.mu.Unlock()
		return
	}
	// Claim: from here the job counts as running (it holds a worker),
	// even though sampling starts a few steps later.
	job.state = Running
	job.started = time.Now()
	job.attempts++
	attempt := job.attempts
	resume := job.checkpoint // non-nil on retry: last all-healthy snapshot
	job.mu.Unlock()

	if hook != nil {
		hook(job)
	}

	w, err := workloads.New(job.spec.Workload, job.spec.Scale, job.spec.Seed)
	if err != nil {
		s.finalizeFailed(job, fmt.Sprintf("building workload: %v", err))
		return
	}
	kind, err := mcmc.ParseSampler(job.spec.Sampler)
	if err != nil {
		s.finalizeFailed(job, err.Error())
		return
	}
	pl := s.place(job.spec.Workload, w.ModeledDataBytes())

	timeout := time.Duration(job.spec.TimeoutSec * float64(time.Second))
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	job.mu.Lock()
	job.placement = &pl
	job.cancelRun = cancel
	canceledEarly := job.cancelRequested
	job.mu.Unlock()
	if canceledEarly {
		// A DELETE raced the claim before the sampling context existed;
		// fire it now so the run stops at iteration zero.
		cancel()
	}

	rule := &traceRule{det: elide.NewDetector(), job: job, stop: !job.spec.NoElide}
	cfg := mcmc.Config{
		Chains:     job.spec.Chains,
		Iterations: job.budget,
		Sampler:    kind,
		Seed:       job.spec.Seed,
		Parallel:   true,
		StopRule:   rule,
		Progress: func(done int) {
			job.mu.Lock()
			job.progress = done
			job.mu.Unlock()
		},
		// Checkpoint so an all-chains fault can retry from the last
		// all-healthy snapshot instead of iteration zero.
		CheckpointEvery: s.cfg.CheckpointEvery,
		CheckpointSink: func(ck *mcmc.Checkpoint) {
			job.mu.Lock()
			job.checkpoint = ck
			job.mu.Unlock()
			if s.cfg.OnCheckpoint != nil {
				// After recording: whatever the observer does (e.g. a
				// cluster worker uploading to its coordinator), the local
				// retry point is already current.
				s.cfg.OnCheckpoint(job, ck)
			}
		},
		ResumeFrom: resume,
	}
	if s.cfg.InjectFaultHook != nil {
		cfg.FaultHook = s.cfg.InjectFaultHook(job, attempt)
	}
	// Every chain steps on its own evaluator at any GOMAXPROCS: served
	// chains never rendezvous for fused gradient sweeps (DESIGN.md, "One
	// gradient path for served jobs").
	res := mcmc.RunContext(ctx, cfg, func() mcmc.Target { return model.NewEvaluator(w.Model) })

	faults := res.Faults()
	if len(faults) > 0 {
		s.chainFaults.Add(int64(len(faults)))
	}
	job.mu.Lock()
	job.faults = faults // always: a clean retry clears the prior attempt's faults
	job.mu.Unlock()
	if len(faults) > 0 && len(res.HealthyChains()) == 0 && !res.Interrupted {
		// Every chain was quarantined: nothing usable came out of this
		// attempt. Retry from the last all-healthy checkpoint if the
		// budget allows, otherwise surface the faults as a failure.
		if s.maybeRetry(job, faults) {
			return
		}
		last := faults[len(faults)-1]
		s.finalizeFaulted(job, res, fmt.Sprintf(
			"all %d chains faulted after %d attempt(s); last: %s",
			len(faults), attempt, last.Error()))
		return
	}

	var sums []ParamSummary
	maxR := 0.0
	if res.Iterations >= 4 && len(res.HealthyChains()) > 0 {
		// Summaries and convergence are computed over the healthy chains
		// only — quarantined prefixes would bias both.
		draws := res.SecondHalfHealthyDraws()
		var names []string
		if c, ok := w.Model.(model.Constrainer); ok {
			names = c.ConstrainedNames()
		}
		for _, d := range diag.Summarize(draws, names) {
			sums = append(sums, ParamSummary{
				Name: d.Name, Mean: d.Mean, SD: d.SD,
				Q05: d.Q05, Median: d.Median, Q95: d.Q95,
				RHat: d.RHat, ESS: d.ESS,
			})
		}
		maxR = diag.MaxSplitRHat(draws)
	}

	var savedIters int64
	var savedJoules float64
	if res.Elided {
		perChain := job.budget - res.Iterations
		savedIters = int64(perChain) * int64(job.spec.Chains)
		savedJoules = elisionJoules(w, job.spec.Scale, pl, perChain, job.spec.Chains)
	}

	job.mu.Lock()
	job.result = res
	job.summaries = sums
	job.maxRHat = maxR
	job.progress = res.Iterations
	job.elided = res.Elided
	job.interrupted = res.Interrupted
	job.savedIters = savedIters
	job.savedJoules = savedJoules
	switch {
	case !res.Interrupted:
		job.state = Done
	case job.cancelRequested:
		job.state = Canceled
		job.errMsg = job.cancelCause
	case ctx.Err() == context.DeadlineExceeded:
		job.state = Failed
		job.errMsg = fmt.Sprintf("timeout after %v (%d/%d iterations retained)", timeout, res.Iterations, job.budget)
	default:
		job.state = Canceled
		job.errMsg = "canceled"
	}
	job.finishLocked()
	job.mu.Unlock()
}

// finalizeFailed marks a claimed job failed before sampling started.
func (s *Server) finalizeFailed(job *Job, msg string) {
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state.Terminal() { // a cancel raced the failure
		return
	}
	job.state = Failed
	job.errMsg = msg
	job.finishLocked()
}

// finalizeFaulted fails a job whose every chain was quarantined with no
// retry budget left, keeping the partial result (the retained prefixes
// and fault records) inspectable via /result.
func (s *Server) finalizeFaulted(job *Job, res *mcmc.Result, msg string) {
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state.Terminal() {
		return
	}
	job.result = res
	job.progress = res.Iterations
	job.state = Failed
	if job.cancelRequested { // a cancel raced the run's own collapse
		job.state = Canceled
		job.errMsg = job.cancelCause
	} else {
		job.errMsg = msg
	}
	job.finishLocked()
}

// maybeRetry arms a backoff retry for a job whose every chain faulted.
// It returns false — the caller then finalizes the job as failed — when
// retries are exhausted or disabled, the job was canceled mid-run, or
// the server is draining. s.mu is taken before job.mu so arming a retry
// cannot race Shutdown's queue close: a timer armed here is visible to
// the drain loop, and a drain in progress refuses the retry.
func (s *Server) maybeRetry(job *Job, faults []mcmc.ChainFault) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.cancelRequested || job.attempts > s.cfg.MaxRetries {
		return false
	}
	s.retries.Add(1)
	delay := retryDelay(s.cfg, job.spec.Seed, job.attempts)
	resumeAt := 0
	if job.checkpoint != nil {
		resumeAt = job.checkpoint.Iteration
	}
	// Trim the R̂ trace back to the resume point: later entries belong to
	// iterations the retry will re-execute.
	trim := 0
	for trim < len(job.rhat) && job.rhat[trim].Iteration <= resumeAt {
		trim++
	}
	job.rhat = job.rhat[:trim]
	job.progress = resumeAt
	last := faults[len(faults)-1]
	job.errMsg = fmt.Sprintf("attempt %d: all %d chains faulted (last: %s); retrying from iteration %d",
		job.attempts, len(faults), last.Error(), resumeAt)
	job.state = Retrying
	job.nextRetry = time.Now().Add(delay)
	job.retryTimer = time.AfterFunc(delay, func() { s.requeue(job) })
	job.cancelRun = nil
	return true
}

// retryDelay is the capped exponential backoff before the attempt-th
// retry, with deterministic ±25% jitter derived from the job seed so
// retry schedules are reproducible per job yet decorrelated across jobs.
func retryDelay(cfg Config, seed uint64, attempt int) time.Duration {
	d := cfg.RetryBackoff
	for i := 1; i < attempt && d < cfg.RetryMaxBackoff; i++ {
		d *= 2
	}
	if d > cfg.RetryMaxBackoff {
		d = cfg.RetryMaxBackoff
	}
	r := rng.New(seed ^ 0x9e3779b97f4a7c15*uint64(attempt))
	return time.Duration(float64(d) * (0.75 + 0.5*r.Float64()))
}

// requeue moves a Retrying job back into the admission queue when its
// backoff expires (called from the retry timer).
func (s *Server) requeue(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		// The timer raced the drain loop; finish the abandonment here.
		s.abandonRetry(job, "canceled: server draining with retry pending")
		return
	}
	job.mu.Lock()
	if job.state != Retrying { // canceled while waiting out the backoff
		job.mu.Unlock()
		return
	}
	job.state = Queued
	job.retryTimer = nil
	job.nextRetry = time.Time{}
	job.mu.Unlock()
	// A retry re-enters via Requeue: it was admitted once already, so the
	// capacity bound (backpressure for new work) does not apply, and
	// prepending means recovery work runs ahead of fresh submissions.
	// Safe under s.mu: Shutdown closes the queue under s.mu, and the
	// draining check above already covered that path.
	if err := s.queue.Requeue(job); err != nil {
		s.abandonRetry(job, "canceled: server draining with retry pending")
	}
}

// abandonRetry cancels a job stuck in Retrying when its retry can no
// longer run. Caller holds s.mu.
func (s *Server) abandonRetry(job *Job, msg string) {
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state != Retrying {
		return
	}
	job.retryTimer = nil
	job.state = Canceled
	job.errMsg = msg
	job.finishLocked()
}

// elisionJoules converts a job's elided iterations into simulated energy
// on its assigned platform: the hardware model's whole-run energy for the
// job's spec, prorated by the fraction of the budget not executed. It is
// a per-spec model estimate: the seed does not enter it, so equal specs
// report equal savings per elided iteration whatever their draws.
func elisionJoules(w *workloads.Workload, scale float64, pl PlacementDecision, savedPerChain, chains int) float64 {
	plat, ok := hw.ByName(pl.Platform)
	if !ok || w.Info.Iterations <= 0 || savedPerChain <= 0 {
		return 0
	}
	cores := chains
	if cores > plat.Cores {
		cores = plat.Cores
	}
	wholeRun := specEnergy.Get(energyKey{w.Info.Name, scale, plat, cores})
	return wholeRun * float64(savedPerChain) / float64(w.Info.Iterations)
}

// energyKey is what the whole-run energy of a job depends on once its
// dataset is the canonical one.
type energyKey struct {
	workload string
	scale    float64
	plat     hw.Platform
	cores    int
}

// canonicalSeed builds the dataset a spec is characterised on (the seed
// workloads.Defaults probes with). The autodiff tape of 12cities,
// butterfly and survival changes shape with the synthetic data, by a few
// per cent in stream bytes; characterising the job's own draw would make
// the simulator's input differ from job to job for nothing the model
// claims to resolve.
const canonicalSeed = 1

// specEnergy characterises each spec once per process. This is the
// paper's own move — a static feature of the spec stands in for a
// measurement of the job — applied to the energy account: the trace-driven
// LLC simulation behind hw.Characterize costs 10–190 ms, a short job's
// whole sampling time, and was on every elided job's critical path.
var specEnergy = hw.NewMemo(func(k energyKey) float64 {
	w, err := workloads.New(k.workload, k.scale, canonicalSeed)
	if err != nil {
		return 0
	}
	return hw.Characterize(perf.Static(w), k.plat, k.cores).EnergyJoules
})
