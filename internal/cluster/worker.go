package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/rng"
	"bayessuite/internal/serve"
)

// WorkerConfig configures a cluster worker daemon.
type WorkerConfig struct {
	// Name is the worker's unique fleet name (required).
	Name string
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Platform is the simulated platform this worker embodies (default
	// Skylake). Its LLC size and frequency are what the coordinator's
	// fleet placement sees.
	Platform hw.Platform
	// Slots is the worker's concurrent job capacity (default 1).
	Slots int
	// LeaseInterval is the pause before asking again after a lease call
	// that failed or that the coordinator answered empty without holding
	// it (default 50ms). A healthy fleet never waits it out: a worker
	// with a free slot keeps one request parked at the coordinator.
	LeaseInterval time.Duration
	// HeartbeatInterval is the liveness cadence (default 500ms). It must
	// be well under the coordinator's HeartbeatTimeout.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout mirrors the coordinator's liveness bound (default
	// 2s) and is the base every RPC deadline and retry budget derives
	// from: leases get HeartbeatTimeout (and ask to be held for half of
	// it), heartbeats half of it, uploads twice it per attempt. No
	// coordinator call is ever issued without a deadline.
	HeartbeatTimeout time.Duration
	// HTTP is the client used for coordinator calls. Default: a client
	// with an explicit Timeout backstopping the per-call deadlines (the
	// bare http.DefaultClient, which has none, is never used) over a
	// transport of its own that keeps as many idle connections as the
	// worker has concurrent calls. Tests substitute a chaos-transport
	// client here.
	HTTP *http.Client
	// Engine, when non-zero, overrides pieces of the embedded
	// serve.Server config (checkpoint cadence, retries, fault hook for
	// the injection harness). Node/Role/PinnedPlatform/OnCheckpoint are
	// always set by the worker.
	Engine serve.Config
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Platform.Codename == "" {
		c.Platform = hw.Skylake
	}
	if c.Slots == 0 {
		c.Slots = 1
	}
	if c.LeaseInterval == 0 {
		c.LeaseInterval = 50 * time.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	return c
}

// leaseRef ties a local engine job to the cluster lease that granted it.
// The attempt number rides on every upload so the coordinator can tell
// this lease's writes from a superseded attempt's.
type leaseRef struct {
	cluster string
	attempt int
	// stream is the checkpoint stream's depth-one window: a token held
	// from the moment a snapshot is handed to its uploader until that
	// upload has ended, so at most one checkpoint of a lease is in flight
	// and uploads leave in iteration order.
	stream chan struct{}
}

// Worker is one fleet member: an embedded single-platform serve.Server
// plus the lease/heartbeat/upload loops that connect it to a coordinator.
type Worker struct {
	cfg    WorkerConfig
	engine *serve.Server
	http   *http.Client // cfg.HTTP, or the default client over a transport of its own

	// leaseCtx ends leasing — Stop's first act, and Kill's — cancelling the
	// parked lease request with it; leaseDone closes when the lease loop
	// has exited. slotFree kicks the loop when a local job finishes.
	// stopc/donec stop and await the heartbeat loop.
	leaseCtx  context.Context
	leaseStop context.CancelFunc
	leaseDone chan struct{}
	slotFree  chan struct{}
	stopc     chan struct{}
	donec     chan struct{}

	killed atomic.Bool

	mu       sync.Mutex
	byLoc    map[string]*leaseRef // engine job ID → lease
	sampling int                  // leased jobs still holding a local slot
	inflit   int                  // leased jobs not yet uploaded
	stopped  bool

	rmu    sync.Mutex
	jitter *rng.RNG // backoff jitter, seeded from the worker name
}

// NewWorker builds the worker and starts its lease and heartbeat loops.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		return nil, fmt.Errorf("cluster: worker needs a name")
	}
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator URL")
	}
	if _, err := url.Parse(cfg.Coordinator); err != nil {
		return nil, fmt.Errorf("cluster: bad coordinator URL: %w", err)
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.Name))
	w := &Worker{
		cfg:       cfg,
		leaseDone: make(chan struct{}),
		slotFree:  make(chan struct{}, 1),
		stopc:     make(chan struct{}),
		donec:     make(chan struct{}),
		byLoc:     make(map[string]*leaseRef),
		jitter:    rng.New(h.Sum64()),
	}
	w.leaseCtx, w.leaseStop = context.WithCancel(context.Background())
	w.http = cfg.HTTP
	if w.http == nil {
		// A worker routinely has a parked lease, a heartbeat and, per slot,
		// a checkpoint or result upload open to the one coordinator host;
		// http.DefaultTransport keeps two idle connections per host and
		// would close and re-dial the rest after every burst.
		// The explicit client-level timeout is a backstop above the per-call
		// context deadlines (largest deadline is 2×HeartbeatTimeout).
		w.http = &http.Client{Timeout: 4 * cfg.HeartbeatTimeout, Transport: &http.Transport{
			Proxy:               http.ProxyFromEnvironment,
			MaxIdleConnsPerHost: cfg.Slots + 3,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	ecfg := cfg.Engine
	ecfg.Node = cfg.Name
	ecfg.Role = "worker"
	plat := cfg.Platform
	ecfg.PinnedPlatform = &plat
	ecfg.Workers = cfg.Slots
	// Overlapped checkpoint stream, depth one: by the time the sampler
	// passes boundary k+1 the coordinator holds boundary k — so a worker
	// killed at iteration i migrates from no further back than the
	// boundary before the last one ≤ i, and the resumed run is still
	// bit-identical, because resume is bit-identical from any checkpoint.
	ecfg.OnCheckpoint = w.uploadCheckpoint
	w.engine = serve.NewServer(ecfg)
	go w.heartbeatLoop()
	go w.leaseLoop()
	return w, nil
}

// Engine exposes the embedded server (its Handler serves the standard
// bayesd API with role "worker"; the fault harness reaches jobs through
// it).
func (w *Worker) Engine() *serve.Server { return w.engine }

// Name returns the worker's fleet name.
func (w *Worker) Name() string { return w.cfg.Name }

// Kill simulates abrupt worker death for the fault harness: loops stop
// immediately (no goodbye heartbeat), running jobs are canceled, and
// nothing further is uploaded — the coordinator finds out the hard way,
// by heartbeat silence. Safe to call from inside a sampling iteration
// (the fault hook): the engine shutdown runs on its own goroutine.
func (w *Worker) Kill() {
	if !w.killed.CompareAndSwap(false, true) {
		return
	}
	w.leaseStop()
	w.closeStop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: cancel running jobs, don't wait politely
	go func() {
		_ = w.engine.Shutdown(ctx)
		w.closeIdle()
	}()
}

// Stop drains the worker gracefully: leasing stops, running jobs finish
// and upload (bounded by ctx), and the final heartbeat says Leaving so
// the coordinator removes this worker from the fleet without waiting for
// the reaper. Order matters at both ends. Leasing is over — the parked
// request cancelled, a grant that raced the cancel admitted locally —
// before the drain looks for in-flight jobs, so none can arrive behind
// its back; and both loops have exited before the goodbye is sent, so no
// lease or heartbeat of this worker is issued after it.
func (w *Worker) Stop(ctx context.Context) error {
	w.leaseStop()
	<-w.leaseDone
	poll := time.NewTicker(5 * time.Millisecond)
	defer poll.Stop()
drain:
	for {
		w.mu.Lock()
		idle := w.inflit == 0
		w.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			break drain
		case <-poll.C:
		}
	}
	err := w.engine.Shutdown(ctx)
	w.closeStop()
	<-w.donec
	if !w.killed.Load() {
		_ = w.sendHeartbeat(true)
	}
	w.closeIdle()
	return err
}

// closeIdle drops the default client's kept-alive connections once the
// worker has nothing more to say; a caller's client is the caller's.
func (w *Worker) closeIdle() {
	if w.cfg.HTTP == nil {
		w.http.CloseIdleConnections()
	}
}

func (w *Worker) closeStop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.stopped {
		w.stopped = true
		close(w.stopc)
	}
}

// leaseLoop keeps one lease request parked at the coordinator whenever a
// slot is free: the first at start-up (it registers the worker), the next
// the moment a local job finishes — before its result upload; the
// coordinator holds the request until that upload frees the slot on its
// side — or the moment the previous one comes back. The coordinator
// holds each for half the liveness bound, under the per-call deadline,
// under the client's backstop. Only a call that failed, or an empty
// answer that came back before the hold could have run out (a draining
// coordinator, or one that predates wait_ms), waits LeaseInterval before
// the next: never a spin.
func (w *Worker) leaseLoop() {
	defer close(w.leaseDone)
	ctx := w.leaseCtx
	hold := w.cfg.HeartbeatTimeout / 2
	for ctx.Err() == nil {
		w.mu.Lock()
		free := w.sampling < w.cfg.Slots
		w.mu.Unlock()
		if !free {
			select {
			case <-w.slotFree:
			case <-ctx.Done():
			}
			continue
		}
		var resp LeaseResponse
		asked := time.Now()
		err := w.post(ctx, "/cluster/v1/lease", LeaseRequest{Worker: w.cfg.Name,
			Capability: w.engine.Capability(), WaitMS: hold.Milliseconds()},
			&resp, w.cfg.HeartbeatTimeout)
		switch {
		case err == nil && resp.Lease != nil:
			w.runLease(resp.Lease)
		case err != nil || time.Since(asked) < hold:
			select {
			case <-time.After(w.cfg.LeaseInterval):
			case <-ctx.Done():
			}
		}
	}
}

// runLease admits a granted job into the local engine and arms the
// result upload for when it finishes.
func (w *Worker) runLease(l *Lease) {
	var ck *mcmc.Checkpoint
	if l.CheckpointB64 != "" {
		data, err := base64.StdEncoding.DecodeString(l.CheckpointB64)
		if err == nil {
			ck, err = mcmc.DecodeCheckpoint(data)
		}
		if err != nil || (l.CheckpointFP != 0 && ck.Fingerprint() != l.CheckpointFP) {
			// A corrupt handoff must not silently restart from zero (the
			// resumed run would no longer be bit-identical to the
			// uninterrupted one). Refuse the lease; the job migrates again.
			return
		}
	}
	job, err := w.engine.SubmitWithCheckpoint(l.Spec, ck)
	if err != nil {
		return // spec/checkpoint mismatch or local drain; the lease lapses
	}
	ref := &leaseRef{cluster: l.JobID, attempt: l.Attempt, stream: make(chan struct{}, 1)}
	w.mu.Lock()
	w.byLoc[job.ID()] = ref
	w.sampling++
	w.inflit++
	w.mu.Unlock()
	go w.awaitAndUpload(job, ref)
}

// awaitAndUpload waits for a local job to finish and uploads its terminal
// status, payload, and raw draws. The upload retries with backoff — it is
// the one delivery the job's client is waiting on — and is idempotent
// coordinator-side (keyed on the lease attempt), so a response lost by
// the network is safely re-sent. A killed worker uploads nothing: from
// the fleet's point of view it died mid-run.
func (w *Worker) awaitAndUpload(job *serve.Job, ref *leaseRef) {
	defer func() {
		w.mu.Lock()
		delete(w.byLoc, job.ID())
		w.inflit--
		w.mu.Unlock()
	}()
	<-job.Done()
	// The local slot is free: let the lease loop ask for the next job now,
	// so its request is already parked when the upload below lands.
	w.mu.Lock()
	w.sampling--
	w.mu.Unlock()
	select {
	case w.slotFree <- struct{}{}:
	default:
	}
	if w.killed.Load() {
		return
	}
	// Drain the checkpoint stream (the token is never given back: the
	// lease is over), so the coordinator never sees a checkpoint after a
	// result from the same attempt.
	ref.stream <- struct{}{}
	st := job.Status()
	payload, _ := job.Result()
	up := ResultUpload{Worker: w.cfg.Name, JobID: ref.cluster, Attempt: ref.attempt,
		Status: st, Payload: payload}
	if raw := job.Raw(); raw != nil {
		up.DrawsB64 = base64.StdEncoding.EncodeToString(EncodeDraws(raw))
	}
	_ = w.withRetry(2*time.Minute, func() error {
		return w.post(context.Background(), "/cluster/v1/jobs/"+url.PathEscape(ref.cluster)+"/result",
			up, nil, 2*w.cfg.HeartbeatTimeout)
	})
}

// uploadCheckpoint is the engine's OnCheckpoint observer, called on the
// sampling loop at every checkpoint boundary: hand the snapshot — a
// self-contained copy nothing writes to again — to an uploader and go
// back to sampling. The sampler waits here only while the previous
// boundary's upload is still in flight, so migration state is never
// behind local state by more than one checkpoint. The retry budget is
// short — an upload that outlasts a checkpoint interval stalls the
// sampler, and a dropped snapshot is safe (the coordinator keeps the
// previous one; the next boundary re-covers).
func (w *Worker) uploadCheckpoint(job *serve.Job, ck *mcmc.Checkpoint) {
	if w.killed.Load() {
		return
	}
	w.mu.Lock()
	ref, ok := w.byLoc[job.ID()]
	w.mu.Unlock()
	if !ok {
		return // locally-submitted job (not leased); nothing to stream
	}
	ref.stream <- struct{}{}
	go func() {
		defer func() { <-ref.stream }()
		w.sendCheckpoint(ref, ck)
	}()
}

// sendCheckpoint encodes and uploads one snapshot, off the sampling loop.
// It ends with the upload accepted, refused (4xx), or the retry budget
// spent; awaitAndUpload waits for it before the lease's result goes out.
func (w *Worker) sendCheckpoint(ref *leaseRef, ck *mcmc.Checkpoint) {
	u := w.cfg.Coordinator + "/cluster/v1/jobs/" + url.PathEscape(ref.cluster) +
		"/checkpoint?worker=" + url.QueryEscape(w.cfg.Name) +
		"&attempt=" + strconv.Itoa(ref.attempt)
	data := ck.Encode()
	_ = w.withRetry(w.cfg.HeartbeatTimeout/4, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), w.cfg.HeartbeatTimeout/2)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := w.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			return &httpError{code: resp.StatusCode, msg: string(body)}
		}
		return nil
	})
}

// heartbeatLoop reports liveness until the worker stops or dies, starting
// at once: the first beat is what re-registers a name whose previous
// holder said goodbye. A failed beat is not retried in place; the cadence
// is the retry.
func (w *Worker) heartbeatLoop() {
	defer close(w.donec)
	t := time.NewTicker(w.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		if w.killed.Load() {
			return
		}
		_ = w.sendHeartbeat(false)
		select {
		case <-w.stopc:
			return
		case <-t.C:
		}
	}
}

// sendHeartbeat posts one heartbeat and applies any cancels it returns —
// including cancels for jobs the coordinator no longer recognizes as
// this worker's (a stale attempt surviving a coordinator restart or
// partition heal), which free the slot for useful work.
func (w *Worker) sendHeartbeat(leaving bool) error {
	req := HeartbeatRequest{
		Worker:     w.cfg.Name,
		Capability: w.engine.Capability(),
		Stats:      w.engine.Stats(),
		Leaving:    leaving,
	}
	w.mu.Lock()
	refs := make(map[string]*leaseRef, len(w.byLoc))
	for loc, ref := range w.byLoc {
		refs[loc] = ref
	}
	w.mu.Unlock()
	for loc, ref := range refs {
		st, err := w.engine.GetJob(loc)
		if err != nil {
			continue
		}
		req.Jobs = append(req.Jobs, JobProgress{JobID: ref.cluster, State: st.State, Progress: st.Progress})
	}
	var resp HeartbeatResponse
	if err := w.post(context.Background(), "/cluster/v1/heartbeat", req, &resp, w.cfg.HeartbeatTimeout/2); err != nil {
		return err
	}
	cancel := make(map[string]bool, len(resp.Cancel))
	for _, cl := range resp.Cancel {
		cancel[cl] = true
	}
	for loc, ref := range refs {
		if cancel[ref.cluster] {
			_, _ = w.engine.CancelJob(loc)
		}
	}
	return nil
}

// httpError is a non-2xx coordinator response. 5xx retries; 4xx is a
// verdict (stale attempt, finished job, bad payload), not weather.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("cluster: HTTP %d: %s", e.code, e.msg)
}

// retryable classifies an RPC failure: transport-level errors (connection
// refused, deadline, injected chaos) and 5xx responses are weather worth
// retrying; any 4xx is a coordinator verdict that retrying cannot change.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.code >= 500
	}
	return true
}

// withRetry runs op with capped exponential backoff until it succeeds,
// fails permanently (4xx), the budget is exhausted, or the worker is
// killed. Backoff starts at 25ms, doubles to a 1s cap, and carries
// ±25% jitter from a stream seeded by the worker name — deterministic
// per worker, decorrelated across the fleet.
func (w *Worker) withRetry(budget time.Duration, op func() error) error {
	deadline := time.Now().Add(budget)
	delay := 25 * time.Millisecond
	for {
		err := op()
		if err == nil || !retryable(err) || w.killed.Load() {
			return err
		}
		d := w.jittered(delay)
		if time.Now().Add(d).After(deadline) {
			return err
		}
		time.Sleep(d)
		if delay *= 2; delay > time.Second {
			delay = time.Second
		}
	}
}

func (w *Worker) jittered(d time.Duration) time.Duration {
	w.rmu.Lock()
	f := 0.75 + 0.5*w.jitter.Float64()
	w.rmu.Unlock()
	return time.Duration(float64(d) * f)
}

// post issues one JSON POST to the coordinator with an explicit per-call
// deadline under ctx. The body is a bytes.Reader, so net/http can replay
// it (GetBody) — required for the chaos transport's duplicate deliveries.
func (w *Worker) post(ctx context.Context, path string, in, out any, timeout time.Duration) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &httpError{code: resp.StatusCode, msg: fmt.Sprintf("%s: %s", path, data)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
