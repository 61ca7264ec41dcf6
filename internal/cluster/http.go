package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"bayessuite/internal/serve"
)

// Handler returns the coordinator's HTTP surface: the standard bayesd
// client API (serve.NewAPIHandler over the coordinator — clients cannot
// tell a fleet from a single node) plus the worker protocol:
//
//	POST /cluster/v1/lease                  ask for work      → 200 LeaseResponse (held up to wait_ms while empty)
//	POST /cluster/v1/heartbeat              liveness report   → 200 HeartbeatResponse
//	POST /cluster/v1/jobs/{id}/checkpoint   checkpoint upload → 204 (body: raw BSCK bytes, ?worker=&attempt=)
//	POST /cluster/v1/jobs/{id}/result       terminal upload   → 204 ResultUpload
//	GET  /cluster/v1/jobs/{id}/draws        raw draw block    → 200 octet-stream
//	GET  /cluster/v1/workers                fleet capabilities → 200 []Capability
func (co *Coordinator) Handler() http.Handler {
	mux := serve.NewAPIHandler(co)
	mux.HandleFunc("POST /cluster/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := co.awaitLease(r.Context(), req)
		if err != nil {
			writeClusterErr(w, err)
			return
		}
		writeClusterJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := co.Heartbeat(req)
		if err != nil {
			writeClusterErr(w, err)
			return
		}
		writeClusterJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /cluster/v1/jobs/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			writeClusterErr(w, errors.Join(serve.ErrBadSpec, err))
			return
		}
		attempt, _ := strconv.Atoi(r.URL.Query().Get("attempt"))
		if err := co.UploadCheckpoint(r.PathValue("id"), r.URL.Query().Get("worker"), attempt, data); err != nil {
			writeClusterErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /cluster/v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		var up ResultUpload
		if !decodeJSON(w, r, &up) {
			return
		}
		up.JobID = r.PathValue("id")
		if err := co.UploadResult(up); err != nil {
			writeClusterErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /cluster/v1/jobs/{id}/draws", func(w http.ResponseWriter, r *http.Request) {
		data, err := co.Draws(r.PathValue("id"))
		if err != nil {
			writeClusterErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	mux.HandleFunc("GET /cluster/v1/workers", func(w http.ResponseWriter, r *http.Request) {
		writeClusterJSON(w, http.StatusOK, co.Workers())
	})
	return mux
}

// awaitLease is the long-poll around Lease: while Lease has nothing for
// this worker the request stays parked — for at most req.WaitMS, clamped
// to [0, HeartbeatTimeout] — and Lease runs again on every fleet change
// (wake's callers: a job admitted, requeued or canceled in the queue, a
// lease granted to anyone, a result accepted, a worker registered, gone
// or reaped). The change signal is taken before each evaluation, so a
// change racing the evaluation is never slept through. A request whose
// context has ended (the worker stopped, was killed, or its connection
// died) is not evaluated again — granting it a job would strand the job
// until the orphaned-lease scan — and a draining or Killed coordinator
// answers whatever it holds at once.
func (co *Coordinator) awaitLease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	hold := time.Duration(min(max(req.WaitMS, 0), co.cfg.HeartbeatTimeout.Milliseconds())) * time.Millisecond
	var expired <-chan time.Time
	for {
		if err := ctx.Err(); err != nil {
			return LeaseResponse{}, err
		}
		changed := co.changeSignal()
		resp, err := co.Lease(req)
		if err != nil || resp.Lease != nil || hold <= 0 || co.halted.Load() {
			return resp, err
		}
		if expired == nil {
			t := time.NewTimer(hold)
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-changed:
		case <-expired:
			return LeaseResponse{}, nil
		case <-ctx.Done():
		}
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		writeClusterErr(w, errors.Join(serve.ErrBadSpec, err))
		return false
	}
	return true
}

func writeClusterJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeClusterErr maps the serve sentinel errors the coordinator reuses
// onto the same status codes as the client API.
func writeClusterErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, serve.ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, serve.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, serve.ErrFinished):
		code = http.StatusConflict
	case errors.Is(err, serve.ErrDraining):
		code = http.StatusServiceUnavailable
	}
	writeClusterJSON(w, code, map[string]string{"error": err.Error()})
}
