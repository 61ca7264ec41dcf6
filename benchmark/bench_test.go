package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"bayessuite"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 50, false}, {19, 50, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {160, 90, true}, {199, 90, true}, {200, 95, true},
		{1000, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		if p, ok := tailPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6}); s != 1.0 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 5},  // overlaps a: the union counts once
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 12}, // sticks out: clipped to the parent
		{ID: 5, Parent: 3, Name: "d", Start: 2, End: 3},
		{ID: 6, Parent: 1, Name: "e", Start: 4, End: 4.5}, // inside b's cover
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 4, 2: 2, 3: 2, 4: 4, 5: 1, 6: 0.5}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	if by := selfByName(spans); by["job"] != 4 || by["b"] != 2 {
		t.Errorf("selfByName = %v", by)
	}
}

func TestJobListIsAFunctionOfTheSeed(t *testing.T) {
	// SplitMix64's first output from state 0.
	if got := splitmix64(0, 0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("splitmix64(0, 0) = %#x", got)
	}
	for _, w := range allWorkloads {
		seen := map[uint64]bool{}
		for i := 0; i < 64; i++ {
			a, b, other := w.jobAt(7, i), w.jobAt(7, i), w.jobAt(8, i)
			if a != b {
				t.Fatalf("%s job %d differs between calls", w.Name, i)
			}
			if a.Seed == other.Seed {
				t.Errorf("%s job %d: seeds 7 and 8 give the same job seed", w.Name, i)
			}
			if k := w.Mix[i%len(w.Mix)]; a.Workload != k.Workload || a.Scale != k.Scale {
				t.Errorf("%s job %d is %s, want round-robin %s", w.Name, i, a.Workload, k.Workload)
			}
			if seen[a.Seed] || a.Seed == 0 {
				t.Errorf("%s job %d: seed %d repeated or zero", w.Name, i, a.Seed)
			}
			seen[a.Seed] = true
			if a.NoElide == w.Elide {
				t.Errorf("%s job %d: no_elide=%v on a workload with Elide=%v", w.Name, i, a.NoElide, w.Elide)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5}
	cases := []struct {
		name   string
		better string
		a, b   []float64
		want   verdict
	}{
		{"within bound", "lower", steady, []float64{104, 105, 103, 104, 106}, same},
		{"slower beyond bound", "lower", steady, []float64{115, 116, 114, 115, 117}, regressed},
		{"throughput drop beyond bound", "higher", steady, []float64{85, 86, 84, 85, 87}, regressed},
		{"throughput gain", "higher", steady, []float64{120, 121, 119, 120, 122}, improved},
		{"noisy parent", "lower", []float64{80, 100, 120, 90, 130}, []float64{115, 116, 114, 115, 117}, unresolved},
		{"noisy change", "lower", steady, []float64{90, 140, 100, 150, 115}, unresolved},
		{"noisy but every run better", "lower", []float64{80, 100, 120, 90, 130}, []float64{50, 60, 70, 55, 75}, improved},
		{"single runs", "lower", []float64{100}, []float64{120}, regressed},
		{"missing side", "lower", steady, nil, unresolved},
	}
	for _, c := range cases {
		if got := judge(c.better, 0.10, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func passingOutcome() *jobOutcome {
	o := &jobOutcome{}
	o.Status.State, o.Result.State = "done", "done"
	o.Result.Iterations, o.Result.WorkEvals = 100, 5000
	o.Result.Summaries = json.RawMessage(`[{"mean":1,"sd":1,"q05":0,"median":1,"q95":2,"rhat":1.01,"ess":120},{"mean":1,"sd":1,"q05":0,"median":1,"q95":2,"rhat":1.3,"ess":80}]`)
	return o
}

func TestGate(t *testing.T) {
	o := passingOutcome()
	if gate(o); o.Fail != "" || o.MinESS != 80 {
		t.Fatalf("clean job: fail %q, min ESS %v", o.Fail, o.MinESS)
	}
	// The gate reads the live trace, not the summaries' split R-hat (1.3
	// above): an elided job is judged by its last trace point.
	o = passingOutcome()
	o.Result.Elided = true
	o.Status.RHatTrace = []rhatPoint{{100, 1.4}, {150, 1.05}}
	if gate(o); o.Fail != "" {
		t.Errorf("elided below threshold failed: %s", o.Fail)
	}
	o.Status.RHatTrace = []rhatPoint{{100, 1.4}, {150, 1.12}}
	if gate(o); o.Fail == "" {
		t.Error("elided at R-hat 1.12 passed")
	}
	for name, breakIt := range map[string]func(*jobOutcome){
		"failed state":   func(o *jobOutcome) { o.Status.State = "failed" },
		"chain fault":    func(o *jobOutcome) { o.Status.ChainFaults = []json.RawMessage{[]byte(`{}`)} },
		"no work":        func(o *jobOutcome) { o.Result.WorkEvals = 0 },
		"no summaries":   func(o *jobOutcome) { o.Result.Summaries = json.RawMessage(`[]`) },
		"refused":        func(o *jobOutcome) { o.Refused, o.Err = true, "submit: refused (429)" },
		"elided untrace": func(o *jobOutcome) { o.Result.Elided = true },
	} {
		o := passingOutcome()
		breakIt(o)
		if gate(o); o.Fail == "" {
			t.Errorf("%s passed the gate", name)
		}
	}
	// A non-finite summary cannot travel as JSON; the in-process paths
	// must still fail it.
	o = &jobOutcome{DoneSeen: time.Now()}
	fillFromResult(o, 10, 10, 0, []bayessuite.Summary{{Mean: math.NaN()}})
	if gate(o); o.Fail == "" {
		t.Error("NaN summary passed the gate")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestMatchesContract(t *testing.T) {
	m := buildManifest()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.MarshalIndent(m, "", "  "); !bytes.Equal(bytes.TrimSpace(data), want) {
		t.Error("BENCHMARK.json differs from registry.go: regenerate it with `go run . manifest > ../BENCHMARK.json`")
	}
	var keys map[string]json.RawMessage
	json.Unmarshal(data, &keys)
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract names exactly 6", len(keys))
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}

	if len(m.Workloads) != 5 {
		t.Errorf("%d workloads, want 5", len(m.Workloads))
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	wl := map[string]bool{}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		wl[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	e2e := map[string]bool{}
	hasSetup := false
	for _, d := range m.EndToEnd {
		name("end-to-end", d.Name)
		e2e[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q better %q bound %v", d.Name, d.Unit, d.Better, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, d := range m.PerLayer {
		name("per-layer", d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer %s has a bound; the contract gives layer metrics none", d.Name)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Moves == nil || len(d.Moves.EndToEnd) == 0 || len(d.Moves.On) == 0 {
			t.Errorf("per-layer %s names no end-to-end metric and workload it moves", d.Name)
			continue
		}
		for _, e := range d.Moves.EndToEnd {
			if !e2e[e] {
				t.Errorf("per-layer %s moves unknown end-to-end metric %q", d.Name, e)
			}
		}
		for _, w := range append(append([]string(nil), d.Moves.On...), d.Moves.NoChange...) {
			if !wl[w] {
				t.Errorf("per-layer %s names unknown workload %q", d.Name, w)
			}
		}
	}
	for _, s := range m.Command {
		if len(s) > 200 || s == "" || s[0] == '/' {
			t.Errorf("command element %q", s)
		}
	}
}
