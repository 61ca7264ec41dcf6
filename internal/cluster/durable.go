package cluster

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"bayessuite/internal/journal"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/serve"
)

// record is one journaled coordinator state transition. A single flat
// struct with a type tag keeps the wire format simple; unused fields are
// omitted per record kind.
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
}

// durableStore bundles the coordinator's journal and blob store under
// one state directory:
//
//	<dir>/coordinator.journal   the record log
//	<dir>/blobs/                content-addressed checkpoint/draw bytes
type durableStore struct {
	j     *journal.Journal
	blobs *journal.BlobStore
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
	return &durableStore{j: j, blobs: blobs}, recs, nil
}

func (d *durableStore) close() {
	d.j.Close()
}

// logRecord appends one record to the journal (fsynced before return).
// A no-op when the coordinator runs without a state directory.
func (co *Coordinator) logRecord(r record) error {
	if co.store == nil {
		return nil
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return co.store.j.Append(raw)
}

// putBlob stores bulk bytes, returning their content address ("" when
// not durable).
func (co *Coordinator) putBlob(data []byte) (string, error) {
	if co.store == nil {
		return "", nil
	}
	return co.store.blobs.Put(data)
}

// ready blocks until recovery finished (immediately for a coordinator
// without a state directory) and reports whether it succeeded. Every
// job-touching API method gates on it; Capability and ServiceStats do
// not, so /readyz and /v1/stats stay live — and observable as
// "recovering" — while the journal replays.
func (co *Coordinator) ready() error {
	<-co.recovered
	return co.recoverErr
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
	err := co.recoverFromDisk(start)
	if err != nil {
		co.recoverErr = fmt.Errorf("coordinator recovery: %w", err)
	}
	co.recovering.Store(false)
	close(co.recovered)
}

func (co *Coordinator) recoverFromDisk(start time.Time) error {
	st, recs, err := openDurableStore(co.cfg.StateDir)
	if err != nil {
		return err
	}
	jobs := make(map[string]*clusterJob)
	var order []string
	maxSeq := 0
	for i, raw := range recs {
		var r record
		if err := json.Unmarshal(raw, &r); err != nil {
			st.close()
			return fmt.Errorf("record %d undecodable: %v", i, err)
		}
		applyRecord(st, jobs, &order, &maxSeq, r)
	}

	// Unfinished jobs go back to the queue: a job mid-lease when the
	// coordinator died cannot be trusted to still be running (the worker
	// may have died with it, or will be told to cancel its stale attempt
	// on its next heartbeat), so it re-leases from its newest
	// fingerprint-verified checkpoint. Determinism makes the duplicate
	// execution safe: any attempt of the same job produces bit-identical
	// draws.
	var live []*clusterJob
	for _, id := range order {
		cj := jobs[id]
		if cj.state.Terminal() {
			continue
		}
		if cj.cancelRequested {
			cj.state = serve.Canceled
			cj.errMsg = cj.cancelCause
			cj.finished = time.Now()
			close(cj.done)
			cj.checkpoint = nil
			cj.ckptAddr = ""
			continue
		}
		cj.worker = ""
		cj.state = serve.Queued
		cj.resumedFrom = 0
		cj.progress = 0
		if cj.checkpoint != nil {
			cj.progress = cj.checkpoint.Iteration
		}
		live = append(live, cj)
	}

	// Compact: rewrite the log down to current state (one admit plus at
	// most two records per job), atomically. Superseded leases,
	// checkpoints, and requeues drop out, bounding journal growth across
	// restarts.
	if err := st.j.Rewrite(compacted(jobs, order)); err != nil {
		st.close()
		return err
	}
	co.gcBlobs(st, jobs)

	replayed := len(recs)
	co.mu.Lock()
	co.store = st
	co.jobs = jobs
	co.order = order
	co.seq = maxSeq
	co.jinfo = &serve.JournalStatus{
		Path:            st.j.Path(),
		RecordsReplayed: replayed,
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

// applyRecord replays one record into the rebuilding job map. Unknown
// job IDs (a record that outlived its compacted admit) are skipped
// defensively. Blob loads are fingerprint-verified; a checkpoint whose
// blob is missing or fails verification is dropped — the job resumes
// from an older checkpoint or from zero rather than from bytes replay
// cannot trust.
func applyRecord(st *durableStore, jobs map[string]*clusterJob, order *[]string, maxSeq *int, r record) {
	if r.T == "admit" {
		if r.Spec == nil || r.ID == "" {
			return
		}
		cj := &clusterJob{
			id:           r.ID,
			spec:         *r.Spec,
			budget:       r.Budget,
			modeledBytes: r.ModeledBytes,
			submitted:    time.Unix(0, r.SubmittedNS),
			state:        serve.Queued,
			done:         make(chan struct{}),
		}
		jobs[r.ID] = cj
		*order = append(*order, r.ID)
		var n int
		if _, err := fmt.Sscanf(r.ID, "cjob-%d", &n); err == nil && n > *maxSeq {
			*maxSeq = n
		}
		return
	}
	cj, ok := jobs[r.ID]
	if !ok {
		return
	}
	switch r.T {
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
		data, err := st.blobs.Get(r.Addr)
		if err != nil {
			return
		}
		ck, err := mcmc.DecodeCheckpoint(data)
		if err != nil || ck.Fingerprint() != r.FP {
			return
		}
		cj.checkpoint = ck
		cj.ckptAddr = r.Addr
	case "result":
		if cj.state.Terminal() || r.Status == nil {
			return
		}
		stCopy := *r.Status
		cj.finalStatus = &stCopy
		if r.Payload != nil {
			p := *r.Payload
			cj.result = &p
		}
		if r.DrawsAddr != "" {
			if d, err := st.blobs.Get(r.DrawsAddr); err == nil {
				cj.draws = d
				cj.drawsAddr = r.DrawsAddr
			}
		}
		cj.worker = r.Worker
		if r.Attempt > 0 {
			cj.leases = r.Attempt
		}
		if r.Requeues > 0 {
			cj.requeues = r.Requeues
		}
		cj.progress = stCopy.Progress
		cj.state = stCopy.State
		cj.errMsg = stCopy.Error
		cj.finished = time.Unix(0, r.FinishedNS)
		close(cj.done)
		cj.checkpoint = nil
		cj.ckptAddr = ""
	case "final":
		if cj.state.Terminal() {
			return
		}
		cj.state = r.State
		cj.errMsg = r.ErrMsg
		cj.finished = time.Unix(0, r.FinishedNS)
		close(cj.done)
		if r.Leases > 0 {
			cj.leases = r.Leases
		}
		if r.Requeues > 0 {
			cj.requeues = r.Requeues
		}
		cj.checkpoint = nil
		cj.ckptAddr = ""
	case "cancel":
		cj.cancelRequested = true
		cj.cancelCause = r.Cause
	case "requeue":
		cj.worker = ""
		cj.state = serve.Queued
		cj.progress = r.ResumeAt
		cj.errMsg = r.Reason
		if r.Leases > 0 {
			cj.leases = r.Leases
		}
		if r.Requeues > 0 {
			cj.requeues = r.Requeues
		}
	}
}

// compacted renders current job state as a minimal record sequence whose
// replay reproduces it.
func compacted(jobs map[string]*clusterJob, order []string) [][]byte {
	var out [][]byte
	add := func(r record) {
		if raw, err := json.Marshal(r); err == nil {
			out = append(out, raw)
		}
	}
	for _, id := range order {
		cj := jobs[id]
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
// jobs), counting them into checkpoints_gced.
func (co *Coordinator) gcBlobs(st *durableStore, jobs map[string]*clusterJob) {
	referenced := make(map[string]bool)
	for _, cj := range jobs {
		if cj.ckptAddr != "" {
			referenced[cj.ckptAddr] = true
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

// dropCheckpointLocked releases a job's retained checkpoint (memory and
// blob) once it can no longer be resumed from — the job reached a
// terminal state, or a newer snapshot superseded it. Caller holds cj.mu.
func (co *Coordinator) dropCheckpointLocked(cj *clusterJob) {
	if cj.checkpoint == nil {
		return
	}
	cj.checkpoint = nil
	if cj.ckptAddr != "" && co.store != nil {
		co.store.blobs.Delete(cj.ckptAddr)
	}
	cj.ckptAddr = ""
	co.ckptGCed.Add(1)
}

// finishJob finalizes a job coordinator-side (no worker upload): cancel
// of a queued job, migration budget exhaustion, drain. Caller holds
// cj.mu. The terminal transition is journaled so a restart does not
// resurrect the job.
func (co *Coordinator) finishJob(cj *clusterJob, state serve.JobState, msg string) {
	if cj.state.Terminal() {
		return
	}
	cj.finalize(state, msg)
	co.dropCheckpointLocked(cj)
	co.logRecord(record{T: "final", ID: cj.id, State: cj.state, ErrMsg: cj.errMsg,
		FinishedNS: cj.finished.UnixNano(), Leases: cj.leases, Requeues: cj.requeues})
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
