package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// pollEvery is the client's status poll cadence: the resolution of every
// latency the benchmark reports for a service workload.
const pollEvery = 5 * time.Millisecond

// The wire types below are the parts of bayesd's documented JSON the
// benchmark reads. They are declared here, not imported from
// internal/serve, so the end-to-end path depends on the HTTP contract
// alone.

type rhatPoint struct {
	Iteration int     `json:"iteration"`
	RHat      float64 `json:"rhat"`
}

type placement struct {
	Node     string `json:"node"`
	Platform string `json:"platform"`
}

type jobStatus struct {
	ID          string            `json:"id"`
	State       string            `json:"state"`
	Error       string            `json:"error"`
	SubmittedAt time.Time         `json:"submitted_at"`
	StartedAt   *time.Time        `json:"started_at"`
	FinishedAt  *time.Time        `json:"finished_at"`
	ChainFaults []json.RawMessage `json:"chain_faults"`
	Placement   *placement        `json:"placement"`
	RHatTrace   []rhatPoint       `json:"rhat_trace"`
	Elided      bool              `json:"elided"`
}

func (s jobStatus) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

type paramSummary struct {
	Mean   float64 `json:"mean"`
	SD     float64 `json:"sd"`
	Q05    float64 `json:"q05"`
	Median float64 `json:"median"`
	Q95    float64 `json:"q95"`
	RHat   float64 `json:"rhat"`
	ESS    float64 `json:"ess"`
}

type jobResult struct {
	State       string            `json:"state"`
	Elided      bool              `json:"elided"`
	Iterations  int               `json:"iterations"`
	Budget      int               `json:"budget"`
	MaxRHat     float64           `json:"max_rhat"`
	WorkEvals   int64             `json:"work_evals"`
	Summaries   json.RawMessage   `json:"summaries"`
	ChainFaults []json.RawMessage `json:"chain_faults"`
}

// client speaks bayesd's client API to one base URL.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do issues one request and returns the status code and body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobOutcome is everything the client saw of one job: what it sent, the
// instants it observed, and the terminal status and result. Spans of a
// traced run are cut from these instants.
type jobOutcome struct {
	Index int
	Spec  jobSpec
	ID    string

	SubmitStart time.Time
	SubmitEnd   time.Time
	DoneSeen    time.Time // the poll that first saw a terminal state
	ResultStart time.Time
	ResultEnd   time.Time
	Polls       int

	Refused     bool // 429 from admission
	Err         string
	Status      jobStatus
	Result      jobResult
	ResultBytes int

	// Derived by the gate.
	MinESS float64
	Fail   string // empty when the job passed the correctness gate
}

// latency is submit → terminal state as the client sees it.
func (o *jobOutcome) latency() time.Duration { return o.DoneSeen.Sub(o.SubmitStart) }

// runJob submits spec, polls it to a terminal state and fetches the
// result. Transport and protocol failures land in Err; the gate turns
// them into a failed job.
func (c *client) runJob(ctx context.Context, index int, spec jobSpec) *jobOutcome {
	o := &jobOutcome{Index: index, Spec: spec}
	body, _ := json.Marshal(spec) // a struct of plain fields cannot fail to marshal
	o.SubmitStart = time.Now()
	code, data, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	o.SubmitEnd = time.Now()
	o.DoneSeen = o.SubmitEnd
	switch {
	case err != nil:
		o.Err = "submit: " + err.Error()
		return o
	case code == http.StatusTooManyRequests:
		o.Refused = true
		o.Err = "submit: refused (429)"
		return o
	case code != http.StatusAccepted:
		o.Err = fmt.Sprintf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
		return o
	}
	if err := json.Unmarshal(data, &o.Status); err != nil || o.Status.ID == "" {
		o.Err = fmt.Sprintf("submit: bad status body: %v", err)
		return o
	}
	o.ID = o.Status.ID

	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		code, data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+o.ID, nil)
		o.Polls++
		if err != nil || code != http.StatusOK {
			o.DoneSeen = time.Now()
			o.Err = fmt.Sprintf("poll: HTTP %d: %v", code, err)
			return o
		}
		var st jobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			o.DoneSeen = time.Now()
			o.Err = "poll: " + err.Error()
			return o
		}
		if st.terminal() {
			o.DoneSeen = time.Now()
			o.Status = st
			break
		}
		select {
		case <-ctx.Done():
			o.DoneSeen = time.Now()
			o.Err = "poll: " + ctx.Err().Error()
			return o
		case <-tick.C:
		}
	}

	o.ResultStart = time.Now()
	code, data, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+o.ID+"/result", nil)
	o.ResultEnd = time.Now()
	o.ResultBytes = len(data)
	if err != nil || code != http.StatusOK {
		o.Err = fmt.Sprintf("result: HTTP %d: %v", code, err)
		return o
	}
	if err := json.Unmarshal(data, &o.Result); err != nil {
		o.Err = "result: " + err.Error()
	}
	return o
}

// getJSON fetches path into out.
func (c *client) getJSON(ctx context.Context, path string, out any) error {
	code, data, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, code)
	}
	return json.Unmarshal(data, out)
}
