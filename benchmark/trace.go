package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one job share Job; Parent is the
// ID of the span that caused this one (0 for a job's root span). Counts
// are recorded at the same boundary as the interval, so ratios are taken
// where the work happens.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Job    string             `json:"job"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_s"` // seconds since the trace began
	End    float64            `json:"end_s"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps a traced run's spans in memory; write puts them on disk
// once the run has ended.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one finished span and returns its ID for children to name.
func (t *tracer) add(parent int, job, name string, start, end time.Time, counts map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
		Counts: counts,
	})
	return id
}

// patch closes a span that was opened before its children so they could
// name it: it sets the end instant and, when given, the counts.
func (t *tracer) patch(id int, end time.Time, counts map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Seconds()
	if counts != nil {
		t.spans[id-1].Counts = counts
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (parallel work) and may stick out of the parent (clock skew
// between a client and a server timestamp); the covered part is the union
// of the children clipped to the parent.
func selfTimes(spans []span) map[int]float64 {
	type iv struct{ lo, hi float64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := 0.0, s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name: the layer split of a trace.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Env      envBlock           `json:"env"`
	SelfS    map[string]float64 `json:"self_seconds_by_span_name"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64, env envBlock) error {
	spans := t.snapshot()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Env: env, SelfS: selfByName(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
