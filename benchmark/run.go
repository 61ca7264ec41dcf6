package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its system up; setup_s is the
// median, so one slow spawn does not decide the metric.
const setupRepeats = 3

// runOptions are the knobs shared by the untraced and traced runs.
type runOptions struct {
	root    string        // repository root (holds cmd/bayesd and benchmark/)
	bayesd  string        // built daemon binary
	tmpRoot string        // where state dirs are made (inside the checkout)
	seed    uint64        // -seed
	window  time.Duration // measured window per workload
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a median or percentile (0: not a sample
	// statistic).
	N int `json:"n,omitempty"`
}

// runReport is one workload's run: the metrics by name plus the counts
// and facts printed beside them.
type runReport struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Succeeded int              `json:"succeeded"`
	Failed    int              `json:"failed"`
	Refused   int              `json:"refused"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Info carries numbers that explain the metrics but are not themselves
	// compared (wall_s is fixed by the window; exact counts attribute a
	// move to elision stopping elsewhere).
	Info  map[string]value `json:"info,omitempty"`
	Flags [][]string       `json:"bayesd_flags,omitempty"`
	// Jobs is the per-job work record a traced run must reproduce.
	Jobs []jobWork `json:"jobs,omitempty"`
}

// jobWork is one job's record: iterations and work_evals are what equal
// seeds must reproduce exactly; latency and min ESS are what was measured.
type jobWork struct {
	Index      int     `json:"index"`
	Workload   string  `json:"workload"`
	Iterations int     `json:"iterations"`
	WorkEvals  int64   `json:"work_evals"`
	LatencyS   float64 `json:"latency_s"`
	MinESS     float64 `json:"min_ess"`
}

func (r *runReport) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// tally gates every outcome and counts sent, succeeded, failed, refused.
func (r *runReport) tally(outs []*jobOutcome) (passed []*jobOutcome) {
	for _, o := range outs {
		r.Attempted++
		if o.Fail == "" {
			gate(o)
		}
		if o.Refused {
			r.Refused++
		}
		if o.Fail != "" {
			r.fail("job %d (%s seed %d): %s", o.Index, o.Spec.Workload, o.Spec.Seed, o.Fail)
			continue
		}
		r.Succeeded++
		passed = append(passed, o)
	}
	return passed
}

// endToEnd computes the end-to-end metrics of one measured window from
// the jobs that passed the gate. wall is first submit → last terminal
// state over every job sent.
//
// jobs_per_s and job_latency_p50_s carry everything a user waits for,
// including how much work a seed's jobs happen to need (which iteration
// elision stops at, how deep NUTS trees grow). The two rate metrics factor
// that out: each is the mean over jobs of the job's own rate — gradient
// evaluations, or smallest effective sample size, per second of its
// latency — times the number of clients running jobs side by side. The
// round-robin mix gives every kind equal weight in that mean, so a seed
// that shifts work from a cheap-gradient kind to a dear one does not read
// as a speed change, which it would in Σ evals ÷ wall.
func endToEnd(r *runReport, clients, cycle int, sent, passed []*jobOutcome) {
	if len(sent) == 0 || len(passed) == 0 {
		return
	}
	first, last := sent[0].SubmitStart, sent[0].DoneSeen
	for _, o := range sent {
		if o.SubmitStart.Before(first) {
			first = o.SubmitStart
		}
		if o.DoneSeen.After(last) {
			last = o.DoneSeen
		}
	}
	wall := last.Sub(first).Seconds()
	var evals, firstEvals, firstStop float64
	lat := make([]float64, 0, len(passed))
	evalRate := make([]float64, 0, len(passed))
	essRate := make([]float64, 0, len(passed))
	for _, o := range passed {
		l := o.latency().Seconds()
		evals += float64(o.Result.WorkEvals)
		if o.Index < cycle {
			firstEvals += float64(o.Result.WorkEvals)
			firstStop += float64(o.Result.Iterations)
		}
		lat = append(lat, l)
		evalRate = append(evalRate, float64(o.Result.WorkEvals)/l)
		essRate = append(essRate, o.MinESS/l)
		r.Jobs = append(r.Jobs, jobWork{o.Index, o.Spec.Workload, o.Result.Iterations, o.Result.WorkEvals, l, o.MinESS})
	}
	c := float64(clients)
	r.Metrics["jobs_per_s"] = value{Value: float64(len(passed)) / wall, Unit: "1/s", N: len(passed)}
	r.Metrics["grad_evals_per_s"] = value{Value: c * mean(evalRate), Unit: "1/s", N: len(passed)}
	r.Metrics["min_ess_per_s"] = value{Value: c * mean(essRate), Unit: "1/s", N: len(passed)}
	r.Metrics["job_latency_p50_s"] = value{Value: median(lat), Unit: "s", N: len(lat)}

	r.Info["grad_evals_per_wall_s"] = value{Value: evals / wall, Unit: "1/s"}
	r.Info["wall_s"] = value{Value: wall, Unit: "s"}
	p, ok := tailPercentile(len(lat))
	name := fmt.Sprintf("job_latency_p%g_s", p)
	if !ok {
		name += ".undersampled"
	}
	r.Info[name] = value{Value: percentile(lat, p), Unit: "s", N: len(lat)}
	// Exact at one seed: the first cycle is a prefix every run executes.
	r.Info["first_cycle.grad_evals"] = value{Value: firstEvals, Unit: "count", N: cycle}
	r.Info["first_cycle.stop_iter_sum"] = value{Value: firstStop, Unit: "count", N: cycle}
	// Per-kind mean latency: which part of the mix a move came from.
	byKind := map[string][]float64{}
	submit := make([]float64, 0, len(passed))
	for _, o := range passed {
		byKind[o.Spec.Workload] = append(byKind[o.Spec.Workload], o.latency().Seconds())
		submit = append(submit, float64(o.SubmitEnd.Sub(o.SubmitStart))/float64(time.Millisecond))
	}
	r.Info["client.submit_ms_p50"] = value{Value: median(submit), Unit: "ms", N: len(submit)}
	for kind, ls := range byKind {
		r.Info["job_latency_mean_s."+kind] = value{Value: mean(ls), Unit: "s", N: len(ls)}
	}
}

// runUntraced is one end-to-end run of a workload with tracing off: set
// the system up (several times, for a steady setup_s), drive the closed
// loop for the window, gate every job, check determinism on one
// duplicated spec, and tear everything down.
func runUntraced(ctx context.Context, w workload, opt runOptions) (*runReport, error) {
	r := &runReport{Workload: w.Name, Metrics: map[string]value{}, Info: map[string]value{}}
	var (
		run     jobRunner
		svc     *service
		setups  []float64
		cpu0    procUsage
		ownCPU0 time.Duration
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if w.Stack == stackLib {
			if err := fitSetup(w, opt.seed); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
			continue
		}
		s, err := startService(ctx, w, opt.bayesd, opt.tmpRoot)
		if err != nil {
			return nil, err
		}
		if err := s.warm(ctx, w, opt.seed); err != nil {
			s.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			s.stop()
			continue
		}
		svc = s
	}
	r.Metrics["setup_s"] = value{Value: median(setups), Unit: "s", N: len(setups)}

	if svc != nil {
		defer svc.stop()
		c := newClient(svc.base, w.Clients)
		defer c.close()
		run = c.runJob
		r.Flags = svc.flags
		cpu0 = svc.usage()
	} else {
		run = fitJob
		ownCPU0 = ownCPUTime()
	}

	calib := boxCalib()
	outs := closedLoop(ctx, w, opt.seed, opt.window, run)
	if len(outs) == 0 {
		return nil, fmt.Errorf("%s: no job ran", w.Name)
	}
	r.Info["proc.calib_ns"] = value{Value: (calib + boxCalib()) / 2, Unit: "ns"}

	// Process counters over the measured window, before the duplicate job.
	var cpu time.Duration
	var rss float64
	if svc != nil {
		u := svc.usage()
		cpu, rss = u.cpu-cpu0.cpu, u.peakRSS
	} else {
		cpu, rss = ownCPUTime()-ownCPU0, ownPeakRSS()
	}

	passed := r.tally(outs)
	endToEnd(r, w.Clients, len(w.Mix), outs, passed)
	if wall := r.Info["wall_s"].Value; wall > 0 {
		r.Info["proc.cpu_s"] = value{Value: cpu.Seconds(), Unit: "s"}
		r.Info["proc.cpu_util"] = value{Value: cpu.Seconds() / (wall * float64(runtime.NumCPU())), Unit: "ratio"}
		r.Info["proc.peak_rss_mb"] = value{Value: rss, Unit: "MB"}
	}

	// Determinism contract: the first job's spec, sent again, must return
	// byte-identical summaries.
	if outs[0].Fail == "" {
		dup := checkDuplicate(ctx, outs[0], run)
		r.tally([]*jobOutcome{dup})
	}
	return r, nil
}

// ownCPUTime is this process's user+system CPU time so far.
func ownCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ownPeakRSS is this process's peak resident set in MB.
func ownPeakRSS() float64 { return readUsage(os.Getpid()).peakRSS }

// findRoot walks up from dir to the repository root: the directory whose
// go.mod declares module bayessuite.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			var mod string
			fmt.Sscanf(string(data), "module %s", &mod)
			if mod == "bayessuite" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no bayessuite go.mod above the working directory")
		}
		dir = parent
	}
}
