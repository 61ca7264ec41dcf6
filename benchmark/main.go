// Command benchmark is the repository's benchmark ladder: five named
// workloads driven end to end from outside the system (real bayesd
// processes over HTTP, and the public bayessuite package), plus a traced
// run per workload that attributes the time to layers. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() (code int) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			return compareMain(os.Args[2:])
		case "manifest": // prints BENCHMARK.json from the tables in registry.go
			data, _ := json.MarshalIndent(buildManifest(), "", "  ") // plain structs cannot fail to marshal
			fmt.Println(string(data))
			return 0
		}
	}
	var (
		name    = flag.String("workload", "", "run one workload and print one JSON result line (the acceptance driver's form); empty runs the whole ladder")
		seed    = flag.Uint64("seed", 7, "run seed: job seeds are splitmix64(seed, i)")
		seconds = flag.Float64("seconds", runSeconds, "measured window per workload, in seconds")
		trace   = flag.Int("trace", 0, "with -workload: 0 measures end to end with tracing off, 1 runs the traced ladder")
		root    = flag.String("root", "", "repository root (default: found from the working directory)")
		quick   = flag.Bool("quick", false, "smoke run: windows ÷ 8; results are flagged non-comparable")
		repeat  = flag.Int("repeat", 1, "whole-ladder mode: run this many full sets and report medians and quartiles")
		out     = flag.String("out", "", "whole-ladder mode: result file (default benchmark/out/result-seed<seed>.json)")
	)
	flag.Parse()

	// Every exit path sweeps children and temp dirs: normal return and
	// panic here, signals and the deadline below.
	defer func() {
		if r := recover(); r != nil {
			cleanup.sweep()
			panic(r)
		}
		cleanup.sweep()
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "benchmark: %v: stopping children\n", sig)
		cleanup.sweep()
		os.Exit(130)
	}()

	if *root == "" {
		r, err := findRoot(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		*root = r
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *quick {
		window /= 8
	}
	buildDir := filepath.Join(*root, ".bench_build")
	bayesd, buildTime, err := buildBayesd(*root, buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	opt := runOptions{
		root:    *root,
		bayesd:  bayesd,
		tmpRoot: filepath.Join(*root, "benchmark", "out", "tmp"),
		seed:    *seed,
		window:  window,
	}

	if *name == "" {
		return ladderMain(opt, buildTime, *repeat, *quick, *out)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	ctx, cancel := deadlineContext(w.Name, window)
	defer cancel()
	var rep *runReport
	if *trace == 0 {
		rep, err = runUntraced(ctx, w, opt)
	} else {
		rep, err = runTraced(ctx, w, opt, buildTime)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	printReport(os.Stderr, rep)
	// The full report, per-job records included, for whoever wants to look
	// behind the one line below.
	detail := filepath.Join(*root, "benchmark", "out", fmt.Sprintf("run-%s-trace%d.json", w.Name, *trace))
	if err := writeJSON(detail, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	return emitDriverLine(rep)
}

// deadlineContext bounds one workload run. The budget is generous — the
// window plus set-up, the job in flight and the traced ladder — but hard:
// when it passes, the run fails loudly instead of hanging.
func deadlineContext(name string, window time.Duration) (context.Context, context.CancelFunc) {
	budget := 3*window + 60*time.Second
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	watchdog := time.AfterFunc(budget+5*time.Second, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s: DEADLINE of %v exceeded; killing children and failing\n", name, budget)
		cleanup.sweep()
		os.Exit(3)
	})
	return ctx, func() { watchdog.Stop(); cancel() }
}

// driverLine is the one JSON object the acceptance driver reads from the
// last line of standard output.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func emitDriverLine(r *runReport) int {
	metrics := make(map[string]value, len(r.Metrics))
	for k, v := range r.Metrics {
		metrics[k] = value{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(driverLine{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: encoding result:", err)
		return 1
	}
	fmt.Println(string(line))
	if r.Failed > 0 {
		return 1
	}
	return 0
}
