package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"
)

// jobRunner runs one job to its terminal state.
type jobRunner func(ctx context.Context, index int, spec jobSpec) *jobOutcome

// closedLoop drives a workload's clients for one measured window. Every
// client waits for its job before taking the next one from the shared
// round-robin list, so a slower system receives less load. Clients stop
// taking jobs at the first cycle boundary (a whole pass over the mix)
// after the window has elapsed: every kind is run equally often and every
// job runs to completion. Outcomes come back in job-index order.
func closedLoop(ctx context.Context, w workload, seed uint64, window time.Duration, run jobRunner) []*jobOutcome {
	var (
		mu   sync.Mutex
		next int
		out  []*jobOutcome
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				if time.Since(start) >= window && i%len(w.Mix) == 0 {
					mu.Unlock()
					return
				}
				next++
				out = append(out, nil)
				mu.Unlock()

				o := run(ctx, i, w.jobAt(seed, i))
				mu.Lock()
				out[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// A cancelled context can leave claimed-but-unrun slots at the tail.
	for len(out) > 0 && out[len(out)-1] == nil {
		out = out[:len(out)-1]
	}
	return out
}

// rhatThreshold is the elision detector's convergence threshold.
const rhatThreshold = 1.1

// gate applies the correctness gate to one job and fills o.Fail and
// o.MinESS. A job passes only if it finished in state done with no
// quarantined chain, every summary is finite, it did some work, and — when
// elision stopped it — the last point of the live R-hat trace is below the
// detector's threshold. The trace is gated, not the result's max_rhat:
// the detector thresholds classic R-hat while /result reports split R-hat,
// which legitimately reads above 1.1 on some elided jobs (README).
func gate(o *jobOutcome) {
	o.Fail = gateReason(o)
}

func gateReason(o *jobOutcome) string {
	if o.Err != "" {
		return o.Err
	}
	if o.Status.State != "done" || o.Result.State != "done" {
		return fmt.Sprintf("state %s (%s)", o.Status.State, o.Status.Error)
	}
	if n := len(o.Status.ChainFaults) + len(o.Result.ChainFaults); n > 0 {
		return fmt.Sprintf("%d chain fault records", n)
	}
	if o.Result.Iterations <= 0 || o.Result.WorkEvals <= 0 {
		return fmt.Sprintf("no work recorded (iterations %d, work_evals %d)", o.Result.Iterations, o.Result.WorkEvals)
	}
	if o.Result.Elided {
		tr := o.Status.RHatTrace
		if len(tr) == 0 {
			return "elided without an R-hat trace"
		}
		if last := tr[len(tr)-1].RHat; !(last < rhatThreshold) {
			return fmt.Sprintf("elided at R-hat %.4f, not below %.1f", last, rhatThreshold)
		}
	}
	var sums []paramSummary
	if err := json.Unmarshal(o.Result.Summaries, &sums); err != nil {
		return "summaries: " + err.Error()
	}
	if len(sums) == 0 {
		return "no summaries"
	}
	o.MinESS = math.Inf(1)
	for i, s := range sums {
		for _, v := range []float64{s.Mean, s.SD, s.Q05, s.Median, s.Q95, s.RHat, s.ESS} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Sprintf("summary %d not finite", i)
			}
		}
		o.MinESS = math.Min(o.MinESS, s.ESS)
	}
	return ""
}

// checkDuplicate re-runs the first job's spec and requires byte-identical
// summaries: the determinism contract (equal specs, equal draws) seen from
// outside. The duplicate is gated like any job and returned so it counts
// as attempted.
func checkDuplicate(ctx context.Context, first *jobOutcome, run jobRunner) *jobOutcome {
	dup := run(ctx, first.Index, first.Spec)
	gate(dup)
	if dup.Fail == "" && !bytes.Equal(dup.Result.Summaries, first.Result.Summaries) {
		dup.Fail = "duplicate spec returned different summaries"
	}
	if dup.Fail == "" && (dup.Result.Iterations != first.Result.Iterations || dup.Result.WorkEvals != first.Result.WorkEvals) {
		dup.Fail = "duplicate spec did different work"
	}
	return dup
}
