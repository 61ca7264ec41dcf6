package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// resultFile is what a whole-ladder run writes: the env block, every
// workload's untraced and traced report of every set, and per metric the
// values across sets with their median and quartiles.
type resultFile struct {
	Env envBlock `json:"env"`
	// Comparable is false for -quick runs: their windows are too short for
	// the numbers to mean anything beyond "it ran".
	Comparable bool                            `json:"comparable"`
	Sets       int                             `json:"sets"`
	Runs       []map[string]*workloadRuns      `json:"runs"`
	Summary    map[string]map[string]*statLine `json:"summary"`
}

type workloadRuns struct {
	Untraced *runReport `json:"untraced"`
	Traced   *runReport `json:"traced"`
}

// statLine is one (workload, metric) across the sets of a result file.
type statLine struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
}

func newStatLine(unit string, vals []float64) *statLine {
	s := &statLine{Unit: unit, Values: vals, Median: median(vals)}
	s.Q1, _, s.Q3 = quartiles(vals)
	if len(vals) > 1 {
		s.Spread = spread(vals)
	}
	return s
}

// ladderMain runs the whole ladder: every workload untraced, then traced,
// `repeat` times over; prints every metric by name; writes the result file.
func ladderMain(opt runOptions, buildTime time.Duration, repeat int, quick bool, out string) int {
	if repeat < 1 {
		repeat = 1
	}
	env := collectEnv(opt, quick)
	env.BayesdFlags = map[string][][]string{}
	res := &resultFile{Env: env, Comparable: !quick, Sets: repeat, Summary: map[string]map[string]*statLine{}}
	failed := 0
	for set := 0; set < repeat; set++ {
		runs := map[string]*workloadRuns{}
		for _, w := range allWorkloads {
			wr, err := runWorkloadPair(w, opt, buildTime)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			runs[w.Name] = wr
			fmt.Printf("\n# set %d/%d\n", set+1, repeat)
			for _, r := range []*runReport{wr.Untraced, wr.Traced} {
				printReport(os.Stdout, r)
				failed += r.Failed
			}
			if len(wr.Untraced.Flags) > 0 {
				env.BayesdFlags[w.Name] = wr.Untraced.Flags
			}
		}
		res.Runs = append(res.Runs, runs)
	}
	res.Env = env
	for _, w := range allWorkloads {
		res.Summary[w.Name] = map[string]*statLine{}
		for _, traced := range []bool{false, true} {
			vals, units := map[string][]float64{}, map[string]string{}
			for _, runs := range res.Runs {
				r := runs[w.Name].Untraced
				if traced {
					r = runs[w.Name].Traced
				}
				for k, v := range r.Metrics {
					vals[k] = append(vals[k], v.Value)
					units[k] = v.Unit
				}
			}
			for k, v := range vals {
				res.Summary[w.Name][k] = newStatLine(units[k], v)
			}
		}
	}
	if repeat > 1 {
		printSummary(res)
	}
	if out == "" {
		out = filepath.Join(opt.root, "benchmark", "out", fmt.Sprintf("result-seed%d.json", opt.seed))
	}
	if err := writeJSON(out, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nresult file: %s\n", out)
	if quick {
		fmt.Println("-quick run: numbers are NOT comparable")
	}
	if failed > 0 {
		fmt.Printf("FAILED: %d jobs or checks failed\n", failed)
		return 1
	}
	return 0
}

// runWorkloadPair runs one workload untraced and then traced, under its
// own hard deadline.
func runWorkloadPair(w workload, opt runOptions, buildTime time.Duration) (*workloadRuns, error) {
	ctx, cancel := deadlineContext(w.Name, 2*opt.window)
	defer cancel()
	un, err := runUntraced(ctx, w, opt)
	if err != nil {
		return nil, err
	}
	tr, err := runTraced(ctx, w, opt, buildTime)
	if err != nil {
		return nil, err
	}
	return &workloadRuns{Untraced: un, Traced: tr}, nil
}

func printSummary(res *resultFile) {
	fmt.Printf("\n# %d sets: median [q1, q3] spread\n", res.Sets)
	for _, w := range allWorkloads {
		fmt.Printf("== %s\n", w.Name)
		for _, d := range endToEndMetrics {
			if s := res.Summary[w.Name][d.Name]; s != nil {
				fmt.Printf("  %-44s %14.6g [%.6g, %.6g] %s  spread %.3f\n", d.Name, s.Median, s.Q1, s.Q3, s.Unit, s.Spread)
			}
		}
		for _, d := range perLayerMetrics {
			if s := res.Summary[w.Name][d.Name]; s != nil {
				fmt.Printf("  %-44s %14.6g [%.6g, %.6g] %s\n", d.Name, s.Median, s.Q1, s.Q3, s.Unit)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
