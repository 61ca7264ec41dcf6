package main

import (
	"fmt"
	"io"
	"sort"
)

// printReport writes one workload's numbers, one metric per line, by
// name, with unit and sample count.
func printReport(w io.Writer, r *runReport) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s): sent %d, succeeded %d, failed %d, refused %d, failed_frac %.4f\n",
		r.Workload, mode, r.Attempted, r.Succeeded, r.Failed, r.Refused, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	printValues(w, "  ", r.Metrics)
	printValues(w, "  (info) ", r.Info)
}

func printValues(w io.Writer, prefix string, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := vals[k]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("  (n=%d)", v.N)
		}
		fmt.Fprintf(w, "%s%-44s %14.6g %s%s\n", prefix, k, v.Value, v.Unit, n)
	}
}
