// Command schedule demonstrates the paper's §V mechanism as a standalone
// tool: it calibrates the static LLC-miss predictor on the BayesSuite
// cache simulations, then assigns each job (by default the whole suite,
// or -job name=modeledKB pairs) to the platform most likely to maximize
// its performance.
//
// Usage:
//
//	schedule                       # place the whole suite
//	schedule -job mymodel=420      # place a custom job by modeled-data KB
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bayessuite/internal/sched"
	"bayessuite/internal/serve"
	"bayessuite/internal/workloads"
)

type jobFlags []string

func (j *jobFlags) String() string     { return strings.Join(*j, ",") }
func (j *jobFlags) Set(v string) error { *j = append(*j, v); return nil }

func main() {
	var jobs jobFlags
	flag.Var(&jobs, "job", "custom job as name=modeledKB (repeatable)")
	seed := flag.Uint64("seed", 7, "random seed for calibration datasets")
	flag.Parse()

	// Calibrate the predictor from the suite's simulated 4-core MPKI at
	// three dataset scales (the Fig. 3 procedure).
	pts, err := serve.SuiteCalibration(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedule:", err)
		os.Exit(1)
	}
	pred, err := sched.Fit(pts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedule:", err)
		os.Exit(1)
	}
	fmt.Printf("predictor: MPKI = %.4f*KB %+.3f; LLC-bound above %.0f KB of modeled data\n\n",
		pred.Slope, pred.Intercept, pred.ThresholdKB)

	s := sched.NewScheduler(pred)
	batch := map[string]int{}
	if len(jobs) == 0 {
		for _, w := range workloads.All(1.0, *seed) {
			batch[w.Info.Name] = w.ModeledDataBytes()
		}
	} else {
		for _, j := range jobs {
			name, kbStr, ok := strings.Cut(j, "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "schedule: bad -job %q (want name=modeledKB)\n", j)
				os.Exit(2)
			}
			kb, err := strconv.ParseFloat(kbStr, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "schedule: bad -job size %q: %v\n", kbStr, err)
				os.Exit(2)
			}
			batch[name] = int(kb * 1024)
		}
	}

	fmt.Printf("%-12s %12s %14s %10s %s\n", "job", "modeled(KB)", "pred. MPKI@4", "LLC-bound", "platform")
	for _, a := range s.AssignAll(batch) {
		fmt.Printf("%-12s %12.1f %14.2f %10v %s (%s)\n",
			a.Job, a.ModeledDataKB, a.PredictedMPKI, a.LLCBound,
			a.Platform.Codename, a.Platform.Processor)
	}
}
