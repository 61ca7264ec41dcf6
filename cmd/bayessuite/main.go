// Command bayessuite runs one BayesSuite workload end-to-end: NUTS
// sampling (optionally with runtime convergence detection), posterior
// summaries, and the simulated hardware characterization on both
// platforms.
//
// Usage:
//
//	bayessuite -workload 12cities [-iterations 2000] [-chains 4]
//	           [-sampler nuts|hmc|mh] [-elide] [-scale 1.0] [-seed 7]
//	bayessuite -list
package main

import (
	"flag"
	"fmt"
	"os"

	"bayessuite/internal/diag"
	"bayessuite/internal/elide"
	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/perf"
	"bayessuite/internal/stanio"
	"bayessuite/internal/workloads"
)

func main() {
	name := flag.String("workload", "", "workload name (see -list)")
	list := flag.Bool("list", false, "list workloads and exit")
	iters := flag.Int("iterations", 0, "per-chain iterations (default: workload's original setting)")
	chains := flag.Int("chains", 4, "number of Markov chains")
	samplerName := flag.String("sampler", "nuts", "sampler: nuts, hmc, or mh")
	doElide := flag.Bool("elide", false, "enable runtime convergence detection")
	scale := flag.Float64("scale", 1.0, "dataset scale in (0, 1]")
	seed := flag.Uint64("seed", 7, "random seed")
	drawsOut := flag.String("draws", "", "write post-warmup draws to this CSV file (Stan-style layout)")
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			w, _ := workloads.New(n, 0.25, 1)
			fmt.Printf("%-10s %-28s %s\n", n, w.Info.Family, w.Info.Application)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "bayessuite: -workload required (or -list)")
		os.Exit(2)
	}
	w, err := workloads.New(*name, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bayessuite:", err)
		os.Exit(2)
	}
	kind, err := mcmc.ParseSampler(*samplerName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bayessuite:", err)
		os.Exit(2)
	}
	n := *iters
	if n == 0 {
		n = w.Info.Iterations
	}

	cfg := mcmc.Config{
		Chains:     *chains,
		Iterations: n,
		Sampler:    kind,
		Seed:       *seed,
		Parallel:   true,
	}
	var det *elide.Detector
	if *doElide {
		det = elide.NewDetector()
		cfg.StopRule = det
	}
	fmt.Printf("running %s: %d chains x %d iterations (%s)\n", *name, *chains, n, kind)
	res := mcmc.Run(cfg, func() mcmc.Target { return model.NewEvaluator(w.Model) })

	if *doElide {
		if res.Elided {
			fmt.Printf("converged: stopped at %d/%d iterations (%.0f%% elided); R-hat %.3f\n",
				res.Iterations, n, 100*(1-float64(res.Iterations)/float64(n)),
				det.Trace[len(det.Trace)-1].RHat)
		} else {
			fmt.Printf("did not converge within %d iterations\n", n)
		}
		fmt.Printf("convergence-check overhead: %v\n", det.Overhead)
	}

	draws := res.SecondHalfDraws()
	// The CSV and the summary table report the model's natural scale; the
	// R-hat line judges the unconstrained draws, as the stop rule does.
	natural, names := model.ConstrainDraws(w.Model, draws)
	if *drawsOut != "" {
		f, err := os.Create(*drawsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bayessuite:", err)
			os.Exit(1)
		}
		if err := stanio.WriteDraws(f, natural, names); err != nil {
			fmt.Fprintln(os.Stderr, "bayessuite:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote draws to %s\n", *drawsOut)
	}
	fmt.Printf("max split R-hat: %.3f; total gradient work: %d evals (slowest/fastest chain %.2f)\n",
		diag.MaxSplitRHat(draws), res.TotalWork(),
		float64(res.MaxChainWork())/float64(maxI64(res.MinChainWork(), 1)))

	sums := diag.Summarize(natural, names)
	heading := "unconstrained"
	if names != nil {
		heading = "constrained"
	}
	limit := len(sums)
	if limit > 12 {
		limit = 12
	}
	fmt.Printf("\nposterior summary (first parameters, %s scale):\n", heading)
	fmt.Printf("%-16s %10s %10s %10s %8s %8s\n", "param", "mean", "sd", "median", "rhat", "ess")
	for _, s := range sums[:limit] {
		label := s.Name
		if label == "" {
			label = "q"
		}
		fmt.Printf("%-16s %10.4f %10.4f %10.4f %8.3f %8.0f\n", label, s.Mean, s.SD, s.Median, s.RHat, s.ESS)
	}

	// Simulated hardware characterization.
	fmt.Println("\nsimulated characterization (4 cores):")
	p := perf.Measure(w, perf.Options{ProfileIterations: 100, Seed: *seed, Parallel: true})
	for _, plat := range hw.Platforms {
		m := hw.Characterize(p, plat, 4)
		fmt.Printf("%-10s IPC %.2f  LLC %.2f MPKI  BW %.2f GB/s  time %.1fs  energy %.0fJ\n",
			plat.Codename, m.IPC, m.LLCMPKI, m.BandwidthGBs, m.TimeSeconds, m.EnergyJoules)
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
