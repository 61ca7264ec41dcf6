package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/hw"
	"bayessuite/internal/journal"
	"bayessuite/internal/sched"
	"bayessuite/internal/serve"
)

// callTimer accumulates per-route call durations at one boundary: the
// handler in front of a server, or the transport under a worker.
type callTimer struct {
	mu    sync.Mutex
	durs  map[string][]float64 // route → ms per call
	bytes map[string]int64     // route → request body bytes
	ids   map[string]map[string]int
	total time.Duration
}

func newCallTimer() *callTimer {
	return &callTimer{durs: map[string][]float64{}, bytes: map[string]int64{}, ids: map[string]map[string]int{}}
}

var jobPath = regexp.MustCompile(`/jobs/([^/]+)`)

// routeOf folds a request onto its route pattern and job id.
func routeOf(r *http.Request) (route, id string) {
	p := r.URL.Path
	if m := jobPath.FindStringSubmatch(p); m != nil {
		id = m[1]
		p = strings.Replace(p, "/jobs/"+id, "/jobs/{id}", 1)
	}
	return r.Method + " " + p, id
}

func (t *callTimer) record(route, id string, start, end time.Time, reqBytes int64) {
	t.mu.Lock()
	t.durs[route] = append(t.durs[route], float64(end.Sub(start))/float64(time.Millisecond))
	if reqBytes > 0 {
		t.bytes[route] += reqBytes
	}
	if id != "" {
		if t.ids[route] == nil {
			t.ids[route] = map[string]int{}
		}
		t.ids[route][id]++
	}
	t.total += end.Sub(start)
	t.mu.Unlock()
}

// handler wraps next with per-route timing.
func (t *callTimer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route, id := routeOf(r)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(route, id, start, time.Now(), r.ContentLength)
	})
}

// RoundTrip times a worker's RPC to the coordinator, as the worker sees it.
func (t *callTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	route, id := routeOf(r)
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(r)
	t.record(route, id, start, time.Now(), r.ContentLength)
	return resp, err
}

func (t *callTimer) p50(route string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.durs[route]), len(t.durs[route])
}

func (t *callTimer) count(route string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.durs[route])
}

// serviceTrace is one traced service window.
type serviceTrace struct {
	outs    []*jobOutcome
	handler *callTimer // at the client-facing (and, for a fleet, worker-facing) handler
	rpc     *callTimer // under the workers' HTTP client (fleet only)
	// Fleet facts read before teardown.
	migrations int64
	// Journal facts read after teardown. journalJobs counts every job the
	// log saw, warm-ups included.
	journalJobs    int
	journalRecords int
	stateBytes     int64
	replayMs       float64
}

// traceService re-runs a service workload in-process: serve.NewServer, or
// cluster.NewCoordinator plus two cluster.NewWorker, behind httptest, with
// the same jobs, clients and flags as the real processes. Spans come from
// the client's instants, a timing handler around Handler(), a timing
// RoundTripper installed as WorkerConfig.HTTP, and the JobStatus
// timestamps.
func traceService(ctx context.Context, tr *tracer, w workload, pts []sched.Point, opt runOptions, window time.Duration) (*serviceTrace, error) {
	st := &serviceTrace{handler: newCallTimer(), rpc: newCallTimer()}
	var base string
	var teardown func()
	slots := 2 // a fleet's two one-slot workers

	if w.Stack != stackFleet {
		slots = nodeSlots(w.NodeFlags)
		srv := serve.NewServer(serve.Config{QueueCap: 64, Workers: slots, CalibrationPoints: pts, MaxRetries: 2})
		ts := httptest.NewServer(st.handler.handler(srv.Handler()))
		base = ts.URL
		teardown = func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(sctx)
			ts.Close()
		}
	} else {
		if err := os.MkdirAll(opt.tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(opt.tmpRoot, "trace-state-")
		if err != nil {
			return nil, err
		}
		cleanup.addDir(dir)
		co := cluster.NewCoordinator(cluster.CoordinatorConfig{Node: "coordinator", QueueCap: 64, CalibrationPoints: pts, StateDir: dir})
		ts := httptest.NewServer(st.handler.handler(co.Handler()))
		base = ts.URL
		var workers []*cluster.Worker
		teardown = func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, wk := range workers {
				wk.Stop(sctx)
			}
			if fs, ok := co.ServiceStats().(cluster.FleetStats); ok {
				st.migrations = fs.Migrations
			}
			co.Shutdown(sctx)
			ts.Close()
			st.readJournal(dir)
			cleanup.removeDir(dir)
		}
		for _, wk := range []struct {
			name string
			plat hw.Platform
		}{{"skylake-1", hw.Skylake}, {"broadwell-1", hw.Broadwell}} {
			worker, err := cluster.NewWorker(cluster.WorkerConfig{
				Name: wk.name, Coordinator: base, Platform: wk.plat, Slots: 1,
				HTTP:   &http.Client{Timeout: 8 * time.Second, Transport: st.rpc},
				Engine: serve.Config{MaxRetries: 2},
			})
			if err != nil {
				teardown()
				return nil, err
			}
			workers = append(workers, worker)
		}
		for len(co.Workers()) < len(workers) {
			select {
			case <-ctx.Done():
				teardown()
				return nil, fmt.Errorf("traced fleet: workers never registered: %w", ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	defer teardown()

	svc := &service{base: base, slots: slots}
	if err := svc.warm(ctx, w, opt.seed); err != nil {
		return nil, err
	}
	st.handler.reset()
	st.rpc.reset()
	st.journalJobs = slots

	c := newClient(base, w.Clients)
	defer c.close()
	st.outs = closedLoop(ctx, w, opt.seed, window, c.runJob)
	for _, o := range st.outs {
		gate(o)
		st.spans(tr, o)
	}
	st.journalJobs += len(st.outs)
	return st, nil
}

func (t *callTimer) reset() {
	t.mu.Lock()
	t.durs, t.bytes, t.ids, t.total = map[string][]float64{}, map[string]int64{}, map[string]map[string]int{}, 0
	t.mu.Unlock()
}

// spans cuts one job's spans from what the client saw and the timestamps
// the server put in the job status. The root's self time is what neither
// the server's queue and run nor the client's own RPCs cover: poll
// quantisation, scheduling, and handler work.
func (st *serviceTrace) spans(tr *tracer, o *jobOutcome) {
	if o.ID == "" {
		return
	}
	end := o.ResultEnd
	if end.IsZero() {
		end = o.DoneSeen
	}
	root := tr.add(0, o.ID, "job", o.SubmitStart, end, map[string]float64{
		"polls": float64(o.Polls), "result_bytes": float64(o.ResultBytes),
		"work_evals": float64(o.Result.WorkEvals), "iterations": float64(o.Result.Iterations),
	})
	tr.add(root, o.ID, "client.submit", o.SubmitStart, o.SubmitEnd, nil)
	if s, f := o.Status.StartedAt, o.Status.FinishedAt; s != nil && f != nil {
		tr.add(root, o.ID, "serve.queue_wait", o.Status.SubmittedAt, *s, nil)
		tr.add(root, o.ID, "serve.run", *s, *f, nil)
	}
	if !o.ResultStart.IsZero() {
		tr.add(root, o.ID, "client.result", o.ResultStart, o.ResultEnd, nil)
	}
}

// readJournal measures what the traced fleet left on disk: how many
// records and bytes the jobs cost, and how long a restart would take to
// replay the log.
func (st *serviceTrace) readJournal(dir string) {
	path := filepath.Join(dir, "coordinator.journal")
	if recs, _, err := journal.Scan(path); err == nil {
		st.journalRecords = len(recs)
	}
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			st.stateBytes += info.Size()
		}
		return nil
	})
	start := time.Now()
	if j, _, err := journal.Open(path); err == nil {
		st.replayMs = float64(time.Since(start)) / float64(time.Millisecond)
		j.Close()
	}
}

// Routes as the timers see them.
const (
	routeSubmit     = "POST /v1/jobs"
	routeStatus     = "GET /v1/jobs/{id}"
	routeResult     = "GET /v1/jobs/{id}/result"
	routeLease      = "POST /cluster/v1/lease"
	routeHeartbeat  = "POST /cluster/v1/heartbeat"
	routeCheckpoint = "POST /cluster/v1/jobs/{id}/checkpoint"
	routeUpload     = "POST /cluster/v1/jobs/{id}/result"
)

// serveMetrics fills the serve.* layer metrics from a traced window.
func (st *serviceTrace) serveMetrics(m map[string]value) {
	var queue, run, over, submit, result, lat []float64
	var bytes, polls float64
	refused := 0
	for _, o := range st.outs {
		if o.Refused {
			refused++
		}
		if o.Fail != "" {
			continue
		}
		lat = append(lat, o.latency().Seconds())
		submit = append(submit, float64(o.SubmitEnd.Sub(o.SubmitStart))/float64(time.Millisecond))
		result = append(result, float64(o.ResultEnd.Sub(o.ResultStart))/float64(time.Millisecond))
		bytes += float64(o.ResultBytes)
		polls += float64(o.Polls)
		if s, f := o.Status.StartedAt, o.Status.FinishedAt; s != nil && f != nil {
			q := float64(s.Sub(o.Status.SubmittedAt)) / float64(time.Millisecond)
			r := float64(f.Sub(*s)) / float64(time.Millisecond)
			queue, run = append(queue, q), append(run, r)
			over = append(over, float64(o.latency())/float64(time.Millisecond)-r)
		}
	}
	n := len(lat)
	m["serve.queue_wait_ms_p50"] = value{Value: median(queue), Unit: "ms", N: len(queue)}
	m["serve.run_ms_p50"] = value{Value: median(run), Unit: "ms", N: len(run)}
	m["serve.overhead_ms_p50"] = value{Value: median(over), Unit: "ms", N: len(over)}
	m["serve.submit_ms_p50"] = value{Value: median(submit), Unit: "ms", N: n}
	m["serve.result_ms_p50"] = value{Value: median(result), Unit: "ms", N: n}
	m["serve.result_bytes_mean"] = value{Value: bytes / float64(max(n, 1)), Unit: "B", N: n}
	m["serve.polls_per_job"] = value{Value: polls / float64(max(n, 1)), Unit: "ratio", N: n}
	m["serve.refused"] = value{Value: float64(refused), Unit: "count"}
	p, _ := tailPercentile(n)
	m["client.job_latency_p50_s"] = value{Value: median(lat), Unit: "s", N: n}
	m["client.job_latency_tail_s"] = value{Value: percentile(lat, p), Unit: "s", N: n}
	m["client.job_latency_tail_pct"] = value{Value: p, Unit: "%", N: n}
}

// clusterMetrics fills the cluster.* and the state-dir journal.* layer
// metrics from a traced fleet window.
func (st *serviceTrace) clusterMetrics(m map[string]value) {
	jobs := 0
	sky := 0
	for _, o := range st.outs {
		if o.Fail != "" {
			continue
		}
		jobs++
		if o.Status.Placement != nil && o.Status.Placement.Platform == "Skylake" {
			sky++
		}
	}
	den := float64(max(jobs, 1))
	for route, name := range map[string]string{
		routeLease: "cluster.lease_rpc_ms_p50", routeCheckpoint: "cluster.checkpoint_rpc_ms_p50",
		routeUpload: "cluster.result_rpc_ms_p50", routeHeartbeat: "cluster.heartbeat_rpc_ms_p50",
	} {
		p50, n := st.rpc.p50(route)
		m[name] = value{Value: p50, Unit: "ms", N: n}
	}
	m["cluster.lease_polls_per_job"] = value{Value: float64(st.rpc.count(routeLease)) / den, Unit: "ratio", N: jobs}
	m["cluster.checkpoints_per_job"] = value{Value: float64(st.rpc.count(routeCheckpoint)) / den, Unit: "ratio", N: jobs}
	st.rpc.mu.Lock()
	upBytes := st.rpc.bytes[routeCheckpoint] + st.rpc.bytes[routeUpload]
	retries := 0
	for _, n := range st.rpc.ids[routeUpload] {
		retries += n - 1
	}
	st.rpc.mu.Unlock()
	m["cluster.upload_bytes_per_job"] = value{Value: float64(upBytes) / den, Unit: "B", N: jobs}
	st.handler.mu.Lock()
	busy := st.handler.total
	st.handler.mu.Unlock()
	m["cluster.handler_busy_s"] = value{Value: busy.Seconds(), Unit: "s"}
	m["cluster.migrations"] = value{Value: float64(st.migrations), Unit: "count"}
	m["cluster.upload_retries"] = value{Value: float64(retries), Unit: "count"}
	m["cluster.placement_share.skylake"] = value{Value: float64(sky) / den, Unit: "ratio", N: jobs}
	m["journal.replay_ms"] = value{Value: st.replayMs, Unit: "ms"}
	jden := float64(max(st.journalJobs, 1))
	m["journal.records_per_job"] = value{Value: float64(st.journalRecords) / jden, Unit: "ratio", N: st.journalJobs}
	m["journal.bytes_per_job"] = value{Value: float64(st.stateBytes) / jden, Unit: "B", N: st.journalJobs}
}
