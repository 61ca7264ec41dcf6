package cluster

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"bayessuite/internal/journal"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/serve"
)

// record is one coordinator state transition: what commit journals and
// what apply performs. A single flat struct with a type tag keeps the
// wire format simple; unused fields are omitted per record kind.
//
//	admit    a job passed admission            (ID, Spec, Budget, ModeledBytes, SubmittedNS)
//	lease    a worker was granted the job      (ID, Worker, Attempt, GrantedNS, ResumeAt)
//	ckpt     a checkpoint upload was accepted  (ID, Worker, Attempt, Iteration, FP, Addr)
//	result   a terminal upload was accepted    (ID, Worker, Attempt, Requeues, Status, Payload, DrawsAddr, FinishedNS)
//	cancel   a client cancel was recorded      (ID, Cause)
//	requeue  the job migrated back to queued   (ID, Reason, ResumeAt, Requeues, Leases)
//	final    the job reached a terminal state
//	         without a worker upload           (ID, State, ErrMsg, FinishedNS, Leases, Requeues)
//
// Bulk payloads (checkpoint bytes, BSDW draw blocks) live in the blob
// store; records carry only their content addresses. The blob is durable
// before the record referencing it is appended.
type record struct {
	T  string `json:"t"`
	ID string `json:"id,omitempty"`

	Spec         *serve.JobSpec `json:"spec,omitempty"`
	Budget       int            `json:"budget,omitempty"`
	ModeledBytes int            `json:"modeled_bytes,omitempty"`
	SubmittedNS  int64          `json:"submitted_ns,omitempty"`

	Worker    string `json:"worker,omitempty"`
	Attempt   int    `json:"attempt,omitempty"`
	GrantedNS int64  `json:"granted_ns,omitempty"`
	ResumeAt  int    `json:"resume_at,omitempty"`

	Iteration int    `json:"iteration,omitempty"`
	FP        uint64 `json:"fp,omitempty"`
	Addr      string `json:"addr,omitempty"`

	Status    *serve.JobStatus     `json:"status,omitempty"`
	Payload   *serve.ResultPayload `json:"payload,omitempty"`
	DrawsAddr string               `json:"draws_addr,omitempty"`

	State      serve.JobState `json:"state,omitempty"`
	ErrMsg     string         `json:"err,omitempty"`
	FinishedNS int64          `json:"finished_ns,omitempty"`
	Cause      string         `json:"cause,omitempty"`
	Reason     string         `json:"reason,omitempty"`
	Leases     int            `json:"lease_count,omitempty"`
	Requeues   int            `json:"requeues,omitempty"`

	// The bytes the record references, in memory only: a ckpt record's
	// checkpoint block (blob) and its decoding (ckpt), a result record's
	// draw block (blob). A live transition carries them from the upload;
	// replay loads them from the blob store (load).
	blob []byte
	ckpt *mcmc.Checkpoint
}

// commit performs one transition of cj: with a state directory it puts
// the record's blob, appends the record (fsynced), and only then applies
// it; without one it only applies it. A transition that fails to become
// durable changes nothing and returns the error; a failed append also
// fails the coordinator (ready refuses from then on), since the journal
// takes no record after it. A checkpoint the transition supersedes or
// ends is released: its memory, and its blob once no other job holds it.
// Caller holds cj.mu, and co.mu for an admit.
func (co *Coordinator) commit(cj *clusterJob, r record) error {
	if co.store != nil {
		var err error
		switch {
		case r.T == "ckpt":
			r.Addr, err = co.store.putCheckpoint(r.blob)
		case r.T == "result" && len(r.blob) > 0:
			r.DrawsAddr, err = co.store.blobs.Put(r.blob)
		}
		if err != nil {
			return err
		}
		raw, err := json.Marshal(r)
		if err == nil {
			err = co.store.j.Append(raw)
		}
		if err != nil {
			co.fail(fmt.Errorf("coordinator journal: %w", err))
			return err
		}
	}
	old, oldAddr := cj.checkpoint, cj.ckptAddr
	co.apply(cj, r)
	if old != nil && cj.checkpoint != old {
		if oldAddr != "" {
			co.store.release(oldAddr)
		}
		co.ckptGCed.Add(1)
	}
	return nil
}

// apply is the coordinator's one transition function: the only code that
// changes a job's journaled fields or closes its done channel. Live
// transitions reach it through commit, replay and recovery directly. A
// finished job takes no further transition, so done closes once and a
// record that lost a race to a terminal one (a lease appended after the
// cancel that finalized the job) replays as the no-op it was live. Caller
// holds cj.mu, and co.mu for an admit, which registers cj.
func (co *Coordinator) apply(cj *clusterJob, r record) {
	if r.T != "admit" && cj.state.Terminal() {
		return
	}
	end := func(state serve.JobState, msg string, finishedNS int64) {
		cj.state, cj.errMsg, cj.finished = state, msg, time.Unix(0, finishedNS)
		cj.checkpoint, cj.ckptAddr = nil, ""
		close(cj.done)
	}
	counts := func() {
		if r.Leases > 0 {
			cj.leases = r.Leases
		}
		if r.Requeues > 0 {
			cj.requeues = r.Requeues
		}
	}
	switch r.T {
	case "admit":
		if r.Spec == nil || r.ID == "" {
			return
		}
		cj.spec, cj.budget, cj.modeledBytes = *r.Spec, r.Budget, r.ModeledBytes
		cj.submitted = time.Unix(0, r.SubmittedNS)
		cj.state = serve.Queued
		co.jobs[r.ID] = cj
		co.order = append(co.order, r.ID)
		var n int
		if _, err := fmt.Sscanf(r.ID, "cjob-%d", &n); err == nil && n > co.seq {
			co.seq = n
		}
	case "lease":
		cj.state = serve.Running
		cj.worker = r.Worker
		cj.leases = r.Attempt
		cj.granted = time.Unix(0, r.GrantedNS)
		cj.resumedFrom = r.ResumeAt
		if cj.started.IsZero() {
			cj.started = cj.granted
		}
	case "ckpt":
		if r.ckpt != nil {
			cj.checkpoint, cj.ckptAddr = r.ckpt, r.Addr
		}
	case "result":
		if r.Status == nil || !r.Status.State.Terminal() {
			return
		}
		st := *r.Status
		cj.finalStatus = &st
		if r.Payload != nil {
			p := *r.Payload
			cj.result = &p
		}
		if r.blob != nil {
			cj.draws, cj.drawsAddr = r.blob, r.DrawsAddr
		}
		cj.worker = r.Worker
		if r.Attempt > 0 {
			cj.leases = r.Attempt
		}
		counts()
		cj.progress = st.Progress
		end(st.State, st.Error, r.FinishedNS)
	case "final":
		if !r.State.Terminal() {
			return
		}
		counts()
		end(r.State, r.ErrMsg, r.FinishedNS)
	case "cancel":
		cj.cancelRequested = true
		cj.cancelCause = r.Cause
	case "requeue":
		cj.worker = ""
		cj.state = serve.Queued
		cj.resumedFrom = 0
		cj.progress = r.ResumeAt
		cj.errMsg = r.Reason
		counts()
	}
}

// final is the record that ends cj without a worker upload: a cancel of a
// queued job, an exhausted migration budget, a drain. Caller holds cj.mu.
func (cj *clusterJob) final(state serve.JobState, msg string, requeues int) record {
	return record{T: "final", ID: cj.id, State: state, ErrMsg: msg,
		FinishedNS: time.Now().UnixNano(), Leases: cj.leases, Requeues: requeues}
}

// resumeAt is the iteration a new lease of cj resumes from: its retained
// checkpoint's, or zero. Caller holds cj.mu.
func (cj *clusterJob) resumeAt() int {
	if cj.checkpoint == nil {
		return 0
	}
	return cj.checkpoint.Iteration
}

// durableStore bundles the coordinator's journal and blob store under
// one state directory:
//
//	<dir>/coordinator.journal   the record log
//	<dir>/blobs/                content-addressed checkpoint/draw bytes
//
// Jobs with equal specs checkpoint to equal bytes, so one checkpoint
// blob can belong to several jobs: refs counts the jobs holding each
// checkpoint address, and a blob is deleted when its count drops to zero.
type durableStore struct {
	j     *journal.Journal
	blobs *journal.BlobStore

	mu   sync.Mutex
	refs map[string]int
}

// putCheckpoint stores a checkpoint blob for one more holder and returns
// its address. The count rises before the write, so a release racing it
// cannot delete the bytes this holder is about to reference.
func (d *durableStore) putCheckpoint(data []byte) (string, error) {
	addr := journal.Addr(data)
	d.mu.Lock()
	d.refs[addr]++
	d.mu.Unlock()
	if _, err := d.blobs.Put(data); err != nil {
		d.release(addr)
		return "", err
	}
	return addr, nil
}

// release drops one holder of the checkpoint blob at addr and deletes
// the blob when none is left. A blob a failed delete leaves behind is
// swept at the next recovery.
func (d *durableStore) release(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.refs[addr]--; d.refs[addr] > 0 {
		return
	}
	delete(d.refs, addr)
	_ = d.blobs.Delete(addr)
}

// openDurableStore opens the state directory, replaying the journal's
// valid records (torn tails truncated; mid-log corruption is a typed
// error the coordinator refuses to serve past).
func openDurableStore(dir string) (*durableStore, [][]byte, error) {
	blobs, err := journal.NewBlobStore(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, nil, err
	}
	j, recs, err := journal.Open(filepath.Join(dir, "coordinator.journal"))
	if err != nil {
		return nil, nil, err
	}
	return &durableStore{j: j, blobs: blobs, refs: make(map[string]int)}, recs, nil
}

func (d *durableStore) close() {
	d.j.Close()
}

// load fetches the bytes a replayed record references. A checkpoint whose
// blob is missing or fails its fingerprint is left out, so apply drops
// the record: the job resumes from an older checkpoint or from zero
// rather than from bytes replay cannot trust. Draws whose blob is missing
// leave the job without draws.
func (d *durableStore) load(r *record) {
	switch {
	case r.T == "ckpt":
		data, err := d.blobs.Get(r.Addr)
		if err != nil {
			return
		}
		if ck, err := mcmc.DecodeCheckpoint(data); err == nil && ck.Fingerprint() == r.FP {
			r.ckpt = ck
		}
	case r.T == "result" && r.DrawsAddr != "":
		r.blob, _ = d.blobs.Get(r.DrawsAddr)
	}
}

// ready blocks until recovery finished (immediately for a coordinator
// without a state directory) and reports whether the coordinator takes
// transitions: every call that would commit one gates on it. Capability
// and ServiceStats do not, so /readyz and /v1/stats stay live — and
// observable as "recovering" — while the journal replays.
func (co *Coordinator) ready() error {
	<-co.recovered
	return co.failure()
}

// failure is why the coordinator takes no more transitions, or nil: its
// recovery failed, or a journal append did. Only a restart, replaying
// what is durable, goes on from there.
func (co *Coordinator) failure() error {
	if err := co.failed.Load(); err != nil {
		return *err
	}
	return nil
}

// fail records the first failure; later ones are its consequences.
func (co *Coordinator) fail(err error) {
	co.failed.CompareAndSwap(nil, &err)
}

// runRecovery is the durable coordinator's startup path: replay the
// journal, rebuild every job, requeue unfinished work from its newest
// fingerprint-verified checkpoint, compact the log, and GC unreferenced
// blobs. Runs on its own goroutine so the HTTP surface can report
// "recovering" in the meantime; recovered is closed when the coordinator
// is serving.
func (co *Coordinator) runRecovery() {
	start := time.Now()
	if co.cfg.recoverGate != nil {
		<-co.cfg.recoverGate
	}
	if err := co.recoverFromDisk(start); err != nil {
		// Serve nothing of a replay that did not finish.
		co.mu.Lock()
		co.jobs, co.order = make(map[string]*clusterJob), nil
		co.mu.Unlock()
		co.fail(fmt.Errorf("coordinator recovery: %w", err))
	}
	co.recovering.Store(false)
	close(co.recovered)
}

func (co *Coordinator) recoverFromDisk(start time.Time) error {
	st, recs, err := openDurableStore(co.cfg.StateDir)
	if err != nil {
		return err
	}
	for i, raw := range recs {
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			st.close()
			return fmt.Errorf("record %d undecodable: %v", i, err)
		}
		st.load(&r)
		co.mu.Lock()
		cj := co.jobs[r.ID]
		if r.T == "admit" {
			cj = &clusterJob{id: r.ID, done: make(chan struct{})}
		}
		if cj != nil { // a record that outlived its compacted admit is skipped
			cj.mu.Lock()
			co.apply(cj, r)
			cj.mu.Unlock()
		}
		co.mu.Unlock()
	}

	// Unfinished jobs go back to the queue: a job mid-lease when the
	// coordinator died cannot be trusted to still be running (the worker
	// may have died with it, or will be told to cancel its stale attempt
	// on its next heartbeat), so it re-leases from its newest
	// fingerprint-verified checkpoint. Determinism makes the duplicate
	// execution safe: any attempt of the same job produces bit-identical
	// draws. A job whose cancel was acknowledged finishes canceled. Both
	// edits are records applied like the replayed ones; the compaction
	// below makes them durable.
	jobs := co.snapshot()
	var live []*clusterJob
	for _, cj := range jobs {
		cj.mu.Lock()
		switch {
		case cj.state.Terminal():
		case cj.cancelRequested:
			co.apply(cj, cj.final(serve.Canceled, cj.cancelCause, cj.requeues))
		default:
			co.apply(cj, record{T: "requeue", ID: cj.id, Reason: cj.errMsg, ResumeAt: cj.resumeAt(),
				Leases: cj.leases, Requeues: cj.requeues})
			live = append(live, cj)
		}
		cj.mu.Unlock()
	}

	// Compact: rewrite the log down to current state (one admit plus at
	// most two records per job), atomically. Superseded leases,
	// checkpoints, and requeues drop out, bounding journal growth across
	// restarts.
	if err := st.j.Rewrite(compacted(jobs)); err != nil {
		st.close()
		return err
	}
	co.gcBlobs(st, jobs)

	co.mu.Lock()
	co.store = st
	co.jinfo = &serve.JournalStatus{
		Path:            st.j.Path(),
		RecordsReplayed: len(recs),
		ReplayMillis:    float64(time.Since(start)) / float64(time.Millisecond),
	}
	co.mu.Unlock()

	// Requeue in reverse so prepends land in submission order.
	for i := len(live) - 1; i >= 0; i-- {
		if err := co.queue.Requeue(live[i]); err != nil {
			return err
		}
	}
	return nil
}

// compacted renders current job state as a minimal record sequence whose
// replay reproduces it.
func compacted(jobs []*clusterJob) [][]byte {
	var out [][]byte
	add := func(r record) {
		if raw, err := json.Marshal(r); err == nil {
			out = append(out, raw)
		}
	}
	for _, cj := range jobs {
		spec := cj.spec
		add(record{T: "admit", ID: cj.id, Spec: &spec, Budget: cj.budget,
			ModeledBytes: cj.modeledBytes, SubmittedNS: cj.submitted.UnixNano()})
		switch {
		case cj.state.Terminal() && cj.finalStatus != nil:
			add(record{T: "result", ID: cj.id, Worker: cj.worker, Attempt: cj.leases,
				Requeues: cj.requeues, Status: cj.finalStatus, Payload: cj.result,
				DrawsAddr: cj.drawsAddr, FinishedNS: cj.finished.UnixNano()})
		case cj.state.Terminal():
			add(record{T: "final", ID: cj.id, State: cj.state, ErrMsg: cj.errMsg,
				FinishedNS: cj.finished.UnixNano(), Leases: cj.leases, Requeues: cj.requeues})
		default:
			if cj.checkpoint != nil && cj.ckptAddr != "" {
				add(record{T: "ckpt", ID: cj.id, Iteration: cj.checkpoint.Iteration,
					FP: cj.checkpoint.Fingerprint(), Addr: cj.ckptAddr})
			}
			if cj.leases > 0 || cj.requeues > 0 || cj.errMsg != "" {
				add(record{T: "requeue", ID: cj.id, Reason: cj.errMsg, ResumeAt: cj.progress,
					Leases: cj.leases, Requeues: cj.requeues})
			}
		}
	}
	return out
}

// gcBlobs deletes every blob no surviving job references (superseded
// checkpoints whose delete raced the crash, draws of compacted-away
// jobs), counting them into checkpoints_gced, and rebuilds the count of
// jobs holding each checkpoint blob.
func (co *Coordinator) gcBlobs(st *durableStore, jobs []*clusterJob) {
	referenced := make(map[string]bool)
	for _, cj := range jobs {
		if cj.ckptAddr != "" {
			referenced[cj.ckptAddr] = true
			st.refs[cj.ckptAddr]++
		}
		if cj.drawsAddr != "" {
			referenced[cj.drawsAddr] = true
		}
	}
	addrs, err := st.blobs.Addrs()
	if err != nil {
		return
	}
	for _, addr := range addrs {
		if referenced[addr] {
			continue
		}
		if st.blobs.Delete(addr) == nil {
			co.ckptGCed.Add(1)
		}
	}
}

// Kill abandons the coordinator without draining: the reaper stops and
// the journal closes, but no job is finalized and nothing is flushed
// beyond what each acknowledged mutation already fsynced — the
// in-process analogue of SIGKILL, used by crash-recovery tests. A
// coordinator built on the same state directory afterward must
// reconstruct everything acknowledged before the Kill.
func (co *Coordinator) Kill() {
	co.halt()
	co.stopOnce.Do(func() { close(co.reapStop) })
	<-co.reapDone
	<-co.recovered
	// co.store is written once (during recovery, before recovered closes)
	// and never cleared — in-flight appends race only the journal's own
	// mutex, failing cleanly once closed.
	if co.store != nil {
		co.store.close()
	}
}
