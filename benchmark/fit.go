package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"bayessuite"
)

// fitConfig is the bayessuite.Config a fit-free job runs with: four
// free-running parallel chains on a fixed budget, no elision.
func fitConfig(spec jobSpec) bayessuite.Config {
	cfg := bayessuite.Config{
		Chains:     4,
		Iterations: spec.Iterations,
		Parallel:   true,
		Seed:       spec.Seed,
		Sampler:    bayessuite.NUTS,
	}
	if spec.Sampler == "hmc" {
		cfg.Sampler = bayessuite.HMC
	}
	return cfg
}

// fitJob is the library path's job: build the workload, Fit it, summarise.
// It fills a jobOutcome the way the HTTP client does so the same gate and
// metrics apply; the wire-shaped fields are synthesised from the result.
func fitJob(_ context.Context, index int, spec jobSpec) *jobOutcome {
	o := &jobOutcome{Index: index, Spec: spec, ID: fmt.Sprintf("fit-%06d", index)}
	o.SubmitStart = time.Now()
	w, err := bayessuite.NewWorkload(spec.Workload, spec.Scale, spec.Seed)
	o.SubmitEnd = time.Now()
	if err != nil {
		o.DoneSeen = o.SubmitEnd
		o.Err = "NewWorkload: " + err.Error()
		return o
	}
	res := bayessuite.Fit(w.Model, fitConfig(spec))
	sums := res.Summaries(nil)
	o.DoneSeen = time.Now()
	fillFromResult(o, res.Iterations, res.TotalWork(), len(res.Faults()), sums)
	return o
}

// fillFromResult writes an in-process run's outcome into the wire-shaped
// fields the gate reads.
func fillFromResult(o *jobOutcome, iterations int, work int64, faults int, sums []bayessuite.Summary) {
	o.ResultStart, o.ResultEnd = o.DoneSeen, o.DoneSeen
	o.Status.State, o.Result.State = "done", "done"
	o.Result.Iterations = iterations
	o.Result.WorkEvals = work
	for i := 0; i < faults; i++ {
		o.Result.ChainFaults = append(o.Result.ChainFaults, json.RawMessage(`{}`))
	}
	wire := make([]paramSummary, len(sums))
	for i, s := range sums {
		wire[i] = paramSummary{Mean: s.Mean, SD: s.SD, Q05: s.Q05, Median: s.Median, Q95: s.Q95, RHat: s.RHat, ESS: s.ESS}
	}
	raw, err := json.Marshal(wire)
	if err != nil { // a NaN or Inf summary: exactly what the gate must catch
		o.Err = "summaries: " + err.Error()
		return
	}
	o.Result.Summaries = raw
	o.ResultBytes = len(raw)
}

// fitSetup is the library path's set-up: building the first cycle's four
// datasets, which a user pays before the first Fit.
func fitSetup(w workload, seed uint64) error {
	for i := range w.Mix {
		spec := w.jobAt(seed, i)
		if _, err := bayessuite.NewWorkload(spec.Workload, spec.Scale, spec.Seed); err != nil {
			return err
		}
	}
	return nil
}
