package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// verdict is compare's reading of one (workload, metric) pair.
type verdict string

const (
	same       verdict = "ok"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
)

// judge applies a metric's direction and bound to the values of a parent
// (a) and a change (b). The change regresses when its median is worse than
// the parent's by more than bound × the parent's median. When either
// side's run-to-run quartile spread exceeds the bound, the pair is
// unresolved — not unchanged — unless every run of the change reads
// better than every run of the parent.
func judge(better string, bound float64, a, b []float64) verdict {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	ma, mb := median(a), median(b)
	worse := mb - ma // positive is worse for "lower"
	if better == "higher" {
		worse = ma - mb
	}
	if (len(a) > 1 && spread(a) > bound) || (len(b) > 1 && spread(b) > bound) {
		if dominates(better, a, b) {
			return improved
		}
		return unresolved
	}
	switch {
	case worse > bound*abs(ma):
		return regressed
	case -worse > bound*abs(ma):
		return improved
	}
	return same
}

// dominates reports whether every run of b reads better than every run
// of a. Fewer than three runs a side prove nothing.
func dominates(better string, a, b []float64) bool {
	if len(a) < 3 || len(b) < 3 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareMain implements `benchmark compare a.json b.json`: one row per
// (workload, metric), a verdict on every end-to-end pair, a plain delta
// for layer metrics, and a non-zero exit when anything regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <parent.json> <change.json>")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := files[0], files[1]
	if a.Env.Seed != b.Env.Seed || a.Env.WindowS != b.Env.WindowS {
		fmt.Printf("WARNING: seeds or windows differ (%d/%gs vs %d/%gs): work per job is seed-dependent, compare only at equal -seed\n",
			a.Env.Seed, a.Env.WindowS, b.Env.Seed, b.Env.WindowS)
	}
	if !a.Comparable || !b.Comparable {
		fmt.Println("WARNING: a -quick result is not comparable")
	}
	regressions := 0
	for _, w := range allWorkloads {
		sa, sb := a.Summary[w.Name], b.Summary[w.Name]
		if sa == nil || sb == nil {
			fmt.Printf("%-12s missing from one file\n", w.Name)
			continue
		}
		for _, d := range endToEndMetrics {
			la, lb := sa[d.Name], sb[d.Name]
			if la == nil || lb == nil {
				fmt.Printf("%-12s %-40s missing from one file\n", w.Name, d.Name)
				continue
			}
			v := judge(d.Better, d.Bound, la.Values, lb.Values)
			if v == regressed {
				regressions++
			}
			fmt.Printf("%-12s %-40s %12.6g -> %12.6g %-5s %+7.2f%%  bound %2.0f%%  spread %.3f/%.3f  %s\n",
				w.Name, d.Name, la.Median, lb.Median, d.Unit, pct(la.Median, lb.Median), 100*d.Bound, la.Spread, lb.Spread, v)
		}
		for _, d := range perLayerMetrics {
			la, lb := sa[d.Name], sb[d.Name]
			if la == nil || lb == nil {
				continue
			}
			note := ""
			if d.Unit == "count" && la.Median != lb.Median {
				note = "count differs"
			}
			fmt.Printf("%-12s %-40s %12.6g -> %12.6g %-5s %+7.2f%%  %s\n",
				w.Name, d.Name, la.Median, lb.Median, d.Unit, pct(la.Median, lb.Median), note)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d end-to-end regressions beyond their bounds\n", regressions)
		return 1
	}
	fmt.Println("no end-to-end regression beyond its bound")
	return 0
}

func pct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / abs(a)
}
