package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"bayessuite/internal/workloads"
)

// API is the control surface the HTTP layer is written against. The
// single-process Server implements it directly; the cluster coordinator
// implements it over its fleet, so clients (and the CLI's Client) speak
// one protocol to either.
type API interface {
	// SubmitJob validates and admits a job, returning its initial status.
	SubmitJob(spec JobSpec) (JobStatus, error)
	// GetJob returns a job's live status.
	GetJob(id string) (JobStatus, error)
	// GetResult returns a job's result payload; ready=false (with a
	// partial payload) while the job is still queued or running.
	GetResult(id string) (ResultPayload, bool, error)
	// CancelJob cancels a job, returning its post-cancel status.
	CancelJob(id string) (JobStatus, error)
	// ListJobs returns every job's status in submission order.
	ListJobs() []JobStatus
	// ServiceStats returns the /v1/stats document: Stats for a
	// single-process node, FleetStats for a coordinator.
	ServiceStats() any
	// Capability returns the node's self-description for /readyz.
	Capability() Capability
}

// maxSpecBytes bounds a job-submission body. A spec is a few hundred
// bytes; the bound keeps one client from making a node or coordinator
// buffer an arbitrarily large request.
const maxSpecBytes = 1 << 20

// NewAPIHandler builds the bayesd HTTP API over any API implementation:
//
//	POST   /v1/jobs            submit a job           → 202 JobStatus
//	GET    /v1/jobs            list jobs              → 200 []JobStatus
//	GET    /v1/jobs/{id}       live status            → 200 JobStatus
//	GET    /v1/jobs/{id}/result posterior summaries   → 200 ResultPayload
//	DELETE /v1/jobs/{id}       cancel                 → 202 JobStatus
//	GET    /v1/stats           service statistics     → 200 Stats | FleetStats
//	GET    /v1/workloads       registry names         → 200 []string
//	GET    /healthz            liveness               → 200 always
//	GET    /readyz             readiness              → 200, 503 draining
//
// /readyz content-negotiates: a bare probe gets the legacy {"status"}
// body, while a client sending Accept: application/json gets the full
// Capability document (LLC bytes, frequency, occupancy, kernel ISA)
// — the probe the cluster coordinator reads fleet capabilities
// from. Both forms share the 200/503 status semantics.
//
// Error mapping: bad spec → 400, unknown job → 404, result not ready or
// cancel of a finished job → 409, submission body over maxSpecBytes →
// 413, queue full → 429 (with Retry-After), draining → 503. Errors are
// {"error": "..."} JSON.
func NewAPIHandler(api API) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				WriteJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
				return
			}
			WriteError(w, errors.Join(ErrBadSpec, err))
			return
		}
		st, err := api.SubmitJob(spec)
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.ListJobs())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := api.GetJob(r.PathValue("id"))
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		payload, ready, err := api.GetResult(r.PathValue("id"))
		if err != nil {
			WriteError(w, err)
			return
		}
		if !ready {
			WriteJSON(w, http.StatusConflict, payload)
			return
		}
		WriteJSON(w, http.StatusOK, payload)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := api.CancelJob(r.PathValue("id"))
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.ServiceStats())
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, workloads.Names())
	})
	// healthz is liveness: the process is up and serving HTTP. It stays
	// 200 through a drain so orchestrators don't kill a server mid-drain.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// readyz is readiness: whether the node accepts new jobs. It flips to
	// 503 the moment a drain begins, steering traffic away while in-flight
	// jobs finish.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		c := api.Capability()
		code := http.StatusOK
		// Not ready while draining (shutting down) or recovering (a durable
		// coordinator replaying its journal — jobs are not leased yet).
		if c.Draining || c.State == "recovering" {
			code = http.StatusServiceUnavailable
		}
		if wantsJSONCapability(r) {
			WriteJSON(w, code, c)
			return
		}
		// Legacy bare probe: old clients (and plain load-balancer checks)
		// predate the capability document and only look at {"status"}.
		WriteJSON(w, code, map[string]string{"status": c.Status})
	})
	return mux
}

// wantsJSONCapability reports whether the probe asked for the capability
// document. Bare probes (no Accept header, or Accept: */*) keep the
// legacy body; anything explicitly accepting application/json opts in.
func wantsJSONCapability(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt := strings.TrimSpace(part)
			if i := strings.IndexByte(mt, ';'); i >= 0 {
				mt = strings.TrimSpace(mt[:i])
			}
			if strings.EqualFold(mt, "application/json") {
				return true
			}
		}
	}
	return false
}

// Handler returns the bayesd HTTP API served by this single-process
// server. See NewAPIHandler for the routes.
func (s *Server) Handler() http.Handler {
	return NewAPIHandler(s)
}

// WriteJSON writes v as the indented JSON body of a code response: the
// one encoding of every bayesd HTTP answer, node, coordinator and worker
// protocol alike.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteError maps the serving layer's sentinel errors onto status codes
// and writes err as an {"error"} body. The cluster coordinator's worker
// protocol reuses the sentinels, and this mapping with them.
func WriteError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrFinished):
		code = http.StatusConflict
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, errorBody{Error: err.Error()})
}
