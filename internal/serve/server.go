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
	s.pred, s.predNote = SetUpPredictor(cfg.Predictor, cfg.CalibrationPoints)
	if s.pred != nil {
		s.schedr = sched.NewScheduler(s.pred)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// SetUpPredictor is the predictor set-up a node and a coordinator share.
// A pre-fitted predictor wins over calibration points. A fit that fails,
// sched.ErrNoLinearRegime above all, leaves no predictor, and placement
// goes frequency-first rather than schedule on noise (§V-A). The note
// says which, for /v1/stats and bayesd's start-up line.
func SetUpPredictor(pre *sched.Predictor, points []sched.Point) (*sched.Predictor, string) {
	switch {
	case pre != nil:
		return pre, fmt.Sprintf("pre-fitted predictor, LLC-bound above %.0f KB", pre.ThresholdKB)
	case len(points) > 0:
		pred, err := sched.Fit(points)
		if err != nil {
			return nil, err.Error()
		}
		return pred, fmt.Sprintf("fitted on %d points, LLC-bound above %.0f KB", len(points), pred.ThresholdKB)
	}
	return nil, "no calibration provided"
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

// Cancel cancels a job. A queued job leaves the queue and ends at once,
// and so does a job waiting out a retry backoff, its timer stopped. A
// running job has its sampling context canceled and ends with the draws
// completed so far.
func (s *Server) Cancel(id string) (JobStatus, error) {
	job, err := s.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	job.mu.Lock()
	finished := job.state.Terminal()
	s.apply(job, event{t: "cancel", causes: byClient})
	job.mu.Unlock()
	s.mu.Unlock()
	if finished {
		return job.Status(), ErrFinished
	}
	return job.Status(), nil
}

// Shutdown drains the server: admission stops, and the jobs that hold no
// worker, queued ones and ones waiting out a retry backoff, are canceled
// as the queue closes, so a drain never waits on a backoff. Jobs already
// running complete normally. If ctx expires first, running jobs are
// canceled (finalizing with partial results) and Shutdown still waits
// for the workers before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.Close()
		for _, id := range s.order {
			job := s.jobs[id]
			job.mu.Lock()
			s.apply(job, event{t: "cancel", causes: byDrain})
			job.mu.Unlock()
		}
	}
	s.mu.Unlock()

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
		s.send(job, event{t: "cancel", causes: byShutdown})
	}
	<-done
	return ctx.Err()
}

// event is one transition of a job's lifecycle, named as the cluster
// coordinator names its records where the two mean the same thing:
//
//	admit    Submit's literal: a job passed admission        → queued
//	claim    a worker popped the job (cancel)                → running
//	ckpt     the run took an all-healthy checkpoint (ck)
//	cancel   a client, a drain or an expired drain (causes)  → canceled,
//	         or, running, a cancel request its run ends on
//	retry    every chain was quarantined (out, msg)          → retrying, or
//	         failed/canceled when no retry may run
//	requeue  the retry backoff ran out                       → queued
//	finish   the run returned (out; msg names a timeout)     → done/failed/canceled
//	final    the job ended without a run to report (state, msg)
//
// apply is the only code that carries them out.
type event struct {
	t      string
	cancel context.CancelFunc
	ck     *mcmc.Checkpoint
	causes causes
	out    *outcome
	state  JobState
	msg    string
}

// outcome is what one sampling attempt produced.
type outcome struct {
	res         *mcmc.Result
	faults      []mcmc.ChainFault
	summaries   []ParamSummary
	maxRHat     float64
	savedIters  int64
	savedJoules float64
}

// causes names why a cancel ends a job, by the state it finds the job
// in; a state without a cause is one that cancel leaves alone.
type causes map[JobState]string

var (
	byClient = causes{
		Queued:   "canceled by client while queued",
		Retrying: "canceled by client while awaiting retry",
		Running:  "canceled by client while running",
	}
	// A drain lets running jobs complete.
	byDrain = causes{
		Queued:   "canceled: server draining",
		Retrying: "canceled: server draining with retry pending",
	}
	// A drain whose deadline expired stops them too.
	byShutdown = causes{Running: "canceled by server shutdown"}
)

// send delivers one event, under the locks apply's caller holds.
func (s *Server) send(job *Job, e event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job.mu.Lock()
	defer job.mu.Unlock()
	s.apply(job, e)
}

// apply is the server's one transition function: the only code that
// sets a job's state, stops its retry timer or closes its done channel.
// A finished job takes no further event, so done closes once and an
// event that lost a race to the job's end (a cancel after the run
// returned, a panic after a cancel) is a no-op. Caller holds s.mu, which
// guards the queue's closing and the draining flag a retry reads, and
// then job.mu.
func (s *Server) apply(job *Job, e event) {
	if job.state.Terminal() {
		return
	}
	end := func(state JobState, msg string) {
		job.state = state
		if msg != "" {
			job.errMsg = msg
		}
		job.finished = time.Now()
		if job.retryTimer != nil {
			job.retryTimer.Stop()
			job.retryTimer = nil
		}
		// The retry checkpoint is a row-major copy of every chain's draw
		// prefix that nothing resumes from once the job has ended.
		job.checkpoint, job.cancelRun, job.nextRetry = nil, nil, time.Time{}
		close(job.done)
	}
	switch e.t {
	case "claim":
		job.state = Running
		job.started = time.Now()
		job.attempts++
		job.cancelRun = e.cancel
	case "ckpt":
		job.checkpoint = e.ck
	case "cancel":
		cause := e.causes[job.state]
		switch {
		case cause == "":
		case job.state != Running:
			if job.state == Queued {
				s.queue.PopWhere(func(j *Job) bool { return j == job })
			}
			end(Canceled, cause)
		case job.cancelCause == "":
			// The run ends on its canceled context and finishes canceled.
			job.cancelCause = cause
			job.cancelRun()
		}
	case "retry":
		job.faults = e.out.faults
		if job.cancelCause != "" || s.draining || job.attempts > s.cfg.MaxRetries {
			// No retry may run: the job ends with the faulted attempt's
			// retained prefixes and fault records, inspectable via /result.
			job.result, job.progress = e.out.res, e.out.res.Iterations
			if job.cancelCause != "" {
				end(Canceled, job.cancelCause)
			} else {
				end(Failed, e.msg)
			}
			return
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
		last := e.out.faults[len(e.out.faults)-1]
		job.errMsg = fmt.Sprintf("attempt %d: all %d chains faulted (last: %s); retrying from iteration %d",
			job.attempts, len(e.out.faults), last.Error(), resumeAt)
		job.state = Retrying
		job.nextRetry = time.Now().Add(delay)
		job.retryTimer = time.AfterFunc(delay, func() { s.send(job, event{t: "requeue"}) })
		job.cancelRun = nil
	case "requeue":
		// Only a Retrying job has a timer to fire, and the drain ends
		// every Retrying job as it closes the queue, under s.mu: the
		// queue is open here.
		job.state = Queued
		job.retryTimer, job.nextRetry = nil, time.Time{}
		// A retry re-enters via Requeue: it was admitted once already, so
		// the capacity bound (backpressure for new work) does not apply,
		// and prepending means recovery work runs ahead of fresh
		// submissions.
		_ = s.queue.Requeue(job)
	case "finish":
		o := e.out
		job.result, job.faults, job.summaries, job.maxRHat = o.res, o.faults, o.summaries, o.maxRHat
		job.progress, job.elided, job.interrupted = o.res.Iterations, o.res.Elided, o.res.Interrupted
		job.savedIters, job.savedJoules = o.savedIters, o.savedJoules
		switch {
		case !o.res.Interrupted:
			end(Done, "")
		case job.cancelCause != "":
			end(Canceled, job.cancelCause)
		case e.msg != "":
			end(Failed, e.msg)
		default:
			end(Canceled, "canceled")
		}
	case "final":
		end(e.state, e.msg)
	}
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

// worker is one pool goroutine: it pops admitted jobs and runs them
// until the queue is closed and empty.
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

// runJob takes one popped job through claim → run → finish: the claim
// and the finish are events, and the run between them builds, places,
// samples and summarises. Any panic escaping the job (a buggy workload
// kernel outside the samplers' per-chain recovery, a summarization bug)
// becomes the job's failure record instead of crashing the worker pool.
func (s *Server) runJob(job *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.send(job, event{t: "final", state: Failed, msg: fmt.Sprintf("worker panic: %v\n%s", r, debug.Stack())})
		}
	}()
	// The claim hands the job the cancel of its run, so a cancel that
	// lands any time after the claim stops the run, at iteration zero if
	// sampling has not started yet.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.mu.Lock()
	job.mu.Lock()
	s.apply(job, event{t: "claim", cancel: cancel})
	claimed, attempt, resume, hook := job.state == Running, job.attempts, job.checkpoint, s.beforeRun
	job.mu.Unlock()
	s.mu.Unlock()
	if !claimed { // a cancel or a drain ended it between the pop and the claim
		return
	}
	if hook != nil {
		hook(job)
	}
	s.send(job, s.run(ctx, job, attempt, resume))
}

// run samples one claimed attempt and returns the event that ends it:
// finish with the run's outcome, retry when every chain was quarantined,
// or final when the job could not be built. It writes no lifecycle field;
// the placement, progress and R̂ trace it records are reports.
func (s *Server) run(ctx context.Context, job *Job, attempt int, resume *mcmc.Checkpoint) event {
	w, err := workloads.New(job.spec.Workload, job.spec.Scale, job.spec.Seed)
	if err != nil {
		return event{t: "final", state: Failed, msg: fmt.Sprintf("building workload: %v", err)}
	}
	kind, err := mcmc.ParseSampler(job.spec.Sampler)
	if err != nil {
		return event{t: "final", state: Failed, msg: err.Error()}
	}
	pl := s.place(job.spec.Workload, w.ModeledDataBytes())

	timeout := time.Duration(job.spec.TimeoutSec * float64(time.Second))
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	job.mu.Lock()
	job.placement = &pl
	job.mu.Unlock()

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
			s.send(job, event{t: "ckpt", ck: ck})
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

	out := &outcome{res: res, faults: res.Faults()}
	if len(out.faults) > 0 {
		s.chainFaults.Add(int64(len(out.faults)))
	}
	if len(out.faults) > 0 && len(res.HealthyChains()) == 0 && !res.Interrupted {
		// Every chain was quarantined: nothing usable came out of this
		// attempt.
		last := out.faults[len(out.faults)-1]
		return event{t: "retry", out: out, msg: fmt.Sprintf("all %d chains faulted after %d attempt(s); last: %s",
			len(out.faults), attempt, last.Error())}
	}

	if res.Iterations >= 4 && len(res.HealthyChains()) > 0 {
		// Summaries and convergence are computed over the healthy chains
		// only — quarantined prefixes would bias both.
		// They describe the model's natural scale; max_rhat judges the
		// unconstrained draws, as the stop rule does.
		draws := res.SecondHalfHealthyDraws()
		for _, d := range diag.Summarize(model.ConstrainDraws(w.Model, draws)) {
			out.summaries = append(out.summaries, ParamSummary{
				Name: d.Name, Mean: d.Mean, SD: d.SD,
				Q05: d.Q05, Median: d.Median, Q95: d.Q95,
				RHat: d.RHat, ESS: d.ESS,
			})
		}
		out.maxRHat = diag.MaxSplitRHat(draws)
	}
	if res.Elided {
		perChain := job.budget - res.Iterations
		out.savedIters = int64(perChain) * int64(job.spec.Chains)
		out.savedJoules = elisionJoules(w, job.spec.Scale, pl, perChain, job.spec.Chains)
	}
	e := event{t: "finish", out: out}
	if ctx.Err() == context.DeadlineExceeded {
		e.msg = fmt.Sprintf("timeout after %v (%d/%d iterations retained)", timeout, res.Iterations, job.budget)
	}
	return e
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
