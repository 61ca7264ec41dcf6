package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// specOnlyAPI admits any spec that passes admission-time validation and
// runs nothing: the submit route's decode-validate-answer path alone.
type specOnlyAPI struct{}

func (specOnlyAPI) SubmitJob(spec JobSpec) (JobStatus, error) {
	norm, budget, err := Normalize(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return JobStatus{ID: "job-000001", State: Queued, Spec: norm, Budget: budget}, nil
}
func (specOnlyAPI) GetJob(string) (JobStatus, error) { return JobStatus{}, ErrNotFound }
func (specOnlyAPI) GetResult(string) (ResultPayload, bool, error) {
	return ResultPayload{}, false, ErrNotFound
}
func (specOnlyAPI) CancelJob(string) (JobStatus, error) { return JobStatus{}, ErrNotFound }
func (specOnlyAPI) ListJobs() []JobStatus               { return nil }
func (specOnlyAPI) ServiceStats() any                   { return Stats{} }
func (specOnlyAPI) Capability() Capability              { return Capability{} }

// FuzzJobSpecJSON feeds POST /v1/jobs arbitrary bodies. The handler must
// accept (202) or refuse the client (4xx) — never panic, never answer
// 5xx.
func FuzzJobSpecJSON(f *testing.F) {
	handler := NewAPIHandler(specOnlyAPI{})
	for _, spec := range []JobSpec{
		{Workload: "12cities", Scale: 0.25, Seed: 7, Iterations: 2000},
		{Workload: "tickets", Scale: 0.05, Chains: 4, Sampler: "hmc", NoElide: true, TimeoutSec: 30},
		{Workload: "nope"},
		{Workload: "memory", Scale: 2},
		{Workload: "memory", Chains: 65},
		{Workload: "memory", Iterations: -1},
		{Workload: "votes", Sampler: "gibbs"},
		{Workload: "ode", TimeoutSec: -1},
	} {
		body, _ := json.Marshal(spec)
		f.Add(body)
	}
	f.Add([]byte(`{"workload":"12cities","scale":0.1,"speculate":true}`))
	f.Add([]byte(`{"workload":"12cities","scale":1e309}`))
	f.Add([]byte(`{"workload":"12cities","iterations":1.5}`))
	f.Add([]byte(`{"workload":"12cities","seed":-1}`))
	f.Add([]byte(`{"workload":"12cities"} trailing`))
	f.Add([]byte(`{"workload":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("POST /v1/jobs answered HTTP %d to %q", rec.Code, body)
		}
	})
}
