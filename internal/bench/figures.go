package bench

import (
	"math"
	"sort"

	"bayessuite/internal/diag"
	"bayessuite/internal/dse"
	"bayessuite/internal/elide"
	"bayessuite/internal/hw"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/perf"
	"bayessuite/internal/sched"
	"bayessuite/internal/vi"
	"bayessuite/internal/workloads"
)

// ---- Table I ----

// Table1 returns the workload summary rows.
func (h *Harness) Table1() []workloads.Info {
	var out []workloads.Info
	for _, w := range h.Suite() {
		out = append(out, w.Info)
	}
	return out
}

// ---- Table II ----

// Table2 returns the platform rows.
func (h *Harness) Table2() []hw.Platform { return hw.Platforms }

// ---- Figure 1: single-core runtime statistics ----

// Fig1Row is one workload's single-core (Skylake) characterization: the
// six panels of Figure 1.
type Fig1Row struct {
	Name         string
	IPC          float64
	ICacheMPKI   float64
	BranchMPKI   float64
	LLCMPKI      float64
	BandwidthMBs float64
	TimeSeconds  float64
}

// Fig1 characterizes every workload on one Skylake core (the paper runs
// the 4 chains sequentially in this configuration).
func (h *Harness) Fig1() []Fig1Row {
	var out []Fig1Row
	for _, w := range h.Suite() {
		p := h.Profile(w)
		m := hw.Characterize(p, hw.Skylake, 1)
		out = append(out, Fig1Row{
			Name:         w.Info.Name,
			IPC:          m.IPC,
			ICacheMPKI:   m.ICacheMPKI,
			BranchMPKI:   m.BranchMPKI,
			LLCMPKI:      m.LLCMPKI,
			BandwidthMBs: m.BandwidthGBs * 1000,
			TimeSeconds:  m.TimeSeconds,
		})
	}
	return out
}

// FigHMC reproduces the §IV-A aside: the single-core characteristics of
// static HMC are close to NUTS's. Returns NUTS and HMC rows side by side.
func (h *Harness) FigHMC() (nuts, hmc []Fig1Row) {
	nuts = h.Fig1()
	for _, w := range h.Suite() {
		h.logf("profiling %s with HMC...\n", w.Info.Name)
		p := perf.Measure(w, perf.Options{
			ProfileIterations: h.opt.ProfileIterations,
			Seed:              h.opt.Seed,
			Parallel:          h.opt.Parallel,
			Sampler:           mcmc.HMC,
		})
		if n := h.iters(w); n != p.Iterations {
			p = p.ScaleIterations(n)
		}
		m := hw.Characterize(p, hw.Skylake, 1)
		hmc = append(hmc, Fig1Row{
			Name:         w.Info.Name,
			IPC:          m.IPC,
			ICacheMPKI:   m.ICacheMPKI,
			BranchMPKI:   m.BranchMPKI,
			LLCMPKI:      m.LLCMPKI,
			BandwidthMBs: m.BandwidthGBs * 1000,
			TimeSeconds:  m.TimeSeconds,
		})
	}
	return nuts, hmc
}

// ---- Figure 2: multicore scaling on Skylake ----

// Fig2Row is one workload's scaling record.
type Fig2Row struct {
	Name    string
	Cores   []int
	IPC     []float64
	LLCMPKI []float64
	Speedup []float64 // vs 1 core
}

// Fig2 sweeps 1, 2, 4 Skylake cores with the paper's 4 chains.
func (h *Harness) Fig2() []Fig2Row {
	cores := []int{1, 2, 4}
	var out []Fig2Row
	for _, w := range h.Suite() {
		p := h.Profile(w)
		row := Fig2Row{Name: w.Info.Name, Cores: cores}
		var t1 float64
		for _, c := range cores {
			m := hw.Characterize(p, hw.Skylake, c)
			if c == 1 {
				t1 = m.TimeSeconds
			}
			row.IPC = append(row.IPC, m.IPC)
			row.LLCMPKI = append(row.LLCMPKI, m.LLCMPKI)
			row.Speedup = append(row.Speedup, t1/m.TimeSeconds)
		}
		out = append(out, row)
	}
	// The paper sorts Figure 2 by 4-core LLC MPKI.
	sort.Slice(out, func(i, j int) bool {
		return out[i].LLCMPKI[len(cores)-1] < out[j].LLCMPKI[len(cores)-1]
	})
	return out
}

// ---- Figure 3: LLC miss prediction ----

// Fig3Point is one (workload, data-scale) sample.
type Fig3Point struct {
	Label         string // name, name-h, name-q
	ModeledDataKB float64
	LLCMPKI       float64
}

// Fig3Result is the scatter plus the fitted predictor.
type Fig3Result struct {
	Points    []Fig3Point
	Predictor *sched.Predictor
	// MaxRelErrAbove1 is the predictor's maximum relative error over the
	// points in the >= 1 MPKI regime (the paper: "modeled data size
	// predicts miss rate accurately" there).
	MaxRelErrAbove1 float64
}

// Fig3 runs every workload at full, half ("-h") and quarter ("-q")
// modeled data through the 4-core Skylake cache simulation and fits the
// static predictor.
func (h *Harness) Fig3() (*Fig3Result, error) {
	scales := []struct {
		suffix string
		frac   float64
	}{{"", 1}, {"-h", 0.5}, {"-q", 0.25}}
	res := &Fig3Result{}
	var fitPts []sched.Point
	for _, w := range h.Suite() {
		for _, sc := range scales {
			mpki, kb := h.StaticMPKI(w.Info.Name, sc.frac)
			res.Points = append(res.Points, Fig3Point{
				Label:         w.Info.Name + sc.suffix,
				ModeledDataKB: kb,
				LLCMPKI:       mpki,
			})
			fitPts = append(fitPts, sched.Point{
				Name: w.Info.Name + sc.suffix, ModeledDataKB: kb, LLCMPKI4Core: mpki,
			})
		}
	}
	pred, err := sched.Fit(fitPts)
	if err != nil {
		return nil, err
	}
	res.Predictor = pred
	for _, pt := range res.Points {
		if pt.LLCMPKI < 1 {
			continue
		}
		est := pred.Predict(pt.ModeledDataKB)
		rel := math.Abs(est-pt.LLCMPKI) / pt.LLCMPKI
		if rel > res.MaxRelErrAbove1 {
			res.MaxRelErrAbove1 = rel
		}
	}
	return res, nil
}

// ---- Figure 4: platform comparison ----

// Fig4Row compares one workload at 4 cores on both platforms.
type Fig4Row struct {
	Name                 string
	SpeedupOverBroadwell float64 // Skylake time advantage
	IPCSkylake           float64
	IPCBroadwell         float64
	MPKISkylake          float64
	MPKIBroadwell        float64
	// Assigned is the scheduler's platform choice.
	Assigned string
}

// Fig4Result also carries the scheduled-vs-Broadwell aggregate speedup
// (the paper's 1.16x).
type Fig4Result struct {
	Rows []Fig4Row
	// ScheduledSpeedup is total-Broadwell-time / total-scheduled-time.
	ScheduledSpeedup float64
}

// Fig4 compares platforms and evaluates the scheduler's placement.
func (h *Harness) Fig4() (*Fig4Result, error) {
	f3, err := h.Fig3()
	if err != nil {
		return nil, err
	}
	scheduler := sched.NewScheduler(f3.Predictor)

	res := &Fig4Result{}
	var tBroadwell, tScheduled float64
	for _, w := range h.Suite() {
		p := h.Profile(w)
		ms := hw.Characterize(p, hw.Skylake, 4)
		mb := hw.Characterize(p, hw.Broadwell, 4)
		asn := scheduler.Assign(w.Info.Name, w.ModeledDataBytes())
		row := Fig4Row{
			Name:                 w.Info.Name,
			SpeedupOverBroadwell: mb.TimeSeconds / ms.TimeSeconds,
			IPCSkylake:           ms.IPC,
			IPCBroadwell:         mb.IPC,
			MPKISkylake:          ms.LLCMPKI,
			MPKIBroadwell:        mb.LLCMPKI,
			Assigned:             asn.Platform.Codename,
		}
		res.Rows = append(res.Rows, row)
		tBroadwell += mb.TimeSeconds
		if asn.Platform.Codename == hw.Broadwell.Codename {
			tScheduled += mb.TimeSeconds
		} else {
			tScheduled += ms.TimeSeconds
		}
	}
	res.ScheduledSpeedup = tBroadwell / tScheduled
	return res, nil
}

// ---- Figure 5: convergence of 12cities ----

// Fig5Result is the convergence study of 12cities.
type Fig5Result struct {
	Workload       string
	UserIterations int
	// Trace pairs iteration -> (RHat, KL vs ground truth).
	Iterations []int
	RHat       []float64
	KL         []float64
	// ConvergedAt is the first iteration with RHat < 1.1.
	ConvergedAt int
	// IterationSavings = 1 - converged/user.
	IterationSavings float64
	// LatencySavings uses the simulated Skylake 4-core latency of the
	// elided run vs the full run (the paper: 53% for 12cities, less than
	// the 70% iteration saving because of chain imbalance and per-
	// iteration cost variation).
	LatencySavings float64
	// ChainImbalance is slowest/fastest chain work in the full run
	// (paper: 1.7 for 12cities).
	ChainImbalance float64
}

// Fig5 reproduces the 12cities convergence trace. Ground truth is a run
// at twice the configured iterations, per the paper.
func (h *Harness) Fig5() *Fig5Result {
	const name = "12cities"
	w := h.workload(name)
	iters := h.iters(w)

	full := h.FullRun(name, 4)

	h.logf("ground-truth run %s (%d iters)...\n", name, 2*iters)
	gt := h.groundTruth2x(name, 2*iters)

	interval := iters / 40
	if interval < 10 {
		interval = 10
	}
	trace := elide.RHatTrace(full.Draws(), interval)

	res := &Fig5Result{Workload: name, UserIterations: iters}
	gtDraws := diag.FlattenChains(gt.SecondHalfDraws())
	for _, cp := range trace {
		res.Iterations = append(res.Iterations, cp.Iteration)
		res.RHat = append(res.RHat, cp.RHat)
		res.KL = append(res.KL, klAgainst(full, cp.Iteration, gtDraws))
	}
	res.ConvergedAt = elide.ConvergencePoint(trace, elide.DefaultThreshold)
	if res.ConvergedAt > 0 {
		res.IterationSavings = 1 - float64(res.ConvergedAt)/float64(iters)
	}

	// Simulated latency saving on Skylake with 4 cores.
	p := h.Profile(w)
	tFull := hw.Characterize(p, hw.Skylake, 4).TimeSeconds
	if res.ConvergedAt > 0 {
		tStop := hw.Characterize(p.ScaleIterations(res.ConvergedAt), hw.Skylake, 4).TimeSeconds
		res.LatencySavings = 1 - tStop/tFull
	}
	if min := full.MinChainWork(); min > 0 {
		res.ChainImbalance = float64(full.MaxChainWork()) / float64(min)
	}
	return res
}

// ---- Figure 6: design-space exploration ----

// Fig6Workloads are the paper's four representative DSE examples: two
// LLC-bound, two compute-bound.
var Fig6Workloads = []string{"ad", "survival", "ode", "memory"}

// Fig6Result maps workload -> explored space on Skylake.
type Fig6Result struct {
	Workload string
	Space    *dse.Result
}

// Fig6 explores the design space for the four representative workloads.
func (h *Harness) Fig6() []Fig6Result {
	var out []Fig6Result
	for _, name := range Fig6Workloads {
		out = append(out, Fig6Result{Workload: name, Space: h.explore(name, hw.Skylake)})
	}
	return out
}

// explore runs the DSE for one workload on one platform, with elision
// outcomes at 1, 2, 4 chains and quality scored on the real draws.
func (h *Harness) explore(name string, plat hw.Platform) *dse.Result {
	w := h.workload(name)
	iters := h.iters(w)
	prof := h.Profile(w)

	elisionIters := map[int]int{}
	for _, chains := range []int{1, 2, 4} {
		e := h.Elision(name, chains)
		if e.Fired {
			elisionIters[chains] = e.StoppedAt
		}
	}

	grid := []int{iters / 8, iters / 4, iters / 2, iters * 3 / 4, iters}
	var cleaned []int
	for _, g := range grid {
		if g >= 40 {
			cleaned = append(cleaned, g)
		}
	}

	return dse.Explore(dse.Config{
		Profile:        prof,
		Platform:       plat,
		IterGrid:       cleaned,
		UserIterations: iters,
		UserChains:     4,
		ElisionIters:   elisionIters,
		Quality:        &runQuality{h: h, name: name},
		KLThreshold:    0.08,
	})
}

// runQuality scores DSE points with real-run KL divergences.
type runQuality struct {
	h    *Harness
	name string
}

func (q *runQuality) KL(chains, iterations int) float64 {
	run := q.h.FullRun(q.name, chains)
	return q.h.GroundTruthKL(q.name, run, iterations)
}

// ---- Figure 7: energy savings ----

// Fig7Row is one workload's energy saving on one platform.
type Fig7Row struct {
	Name          string
	Platform      string
	UserEnergyJ   float64
	ChosenEnergyJ float64
	OracleEnergyJ float64
	SavingsPct    float64
	OraclePct     float64
}

// Fig7 compares the elision design point against the user setting on
// both platforms (the paper's ~70% average saving), with the energy
// oracle alongside.
func (h *Harness) Fig7() []Fig7Row {
	var out []Fig7Row
	for _, w := range h.Suite() {
		name := w.Info.Name
		e := h.Elision(name, 4)
		p := h.Profile(w)
		for _, plat := range hw.Platforms {
			user := hw.Characterize(p, plat, 4)
			chosen := hw.Characterize(p.ScaleIterations(e.StoppedAt), plat, 4)
			// Oracle: cheapest chains x iterations achievable knowing the
			// ground truth; approximate with the elision stop point at a
			// reduced chain count (the paper: oracle points use 1-2
			// chains).
			oracle := chosen
			for _, chains := range oracleChainCounts(name) {
				ec := h.Elision(name, chains)
				if !ec.Fired {
					continue
				}
				m := hw.Characterize(p.WithChains(chains).ScaleIterations(ec.StoppedAt), plat, chains)
				if m.EnergyJoules < oracle.EnergyJoules {
					oracle = m
				}
			}
			out = append(out, Fig7Row{
				Name:          name,
				Platform:      plat.Codename,
				UserEnergyJ:   user.EnergyJoules,
				ChosenEnergyJ: chosen.EnergyJoules,
				OracleEnergyJ: oracle.EnergyJoules,
				SavingsPct:    100 * (1 - chosen.EnergyJoules/user.EnergyJoules),
				OraclePct:     100 * (1 - oracle.EnergyJoules/user.EnergyJoules),
			})
		}
	}
	return out
}

// oracleChainCounts limits the oracle's chain-count sweep: 1 and 2 chains
// for the four Figure 6 workloads, 2 elsewhere. Every count costs the same
// one sampler run per workload, so the restriction only keeps Figs. 7/8 as
// published; widening it is a deliberate number change.
func oracleChainCounts(name string) []int {
	for _, n := range Fig6Workloads {
		if n == name {
			return []int{1, 2}
		}
	}
	return []int{2}
}

// ---- Figure 8: overall speedup ----

// Fig8Row is one workload's end-to-end speedup from the paper's two
// techniques combined.
type Fig8Row struct {
	Name string
	// Baseline: user settings on Broadwell (no elision).
	BaselineSeconds float64
	// Proposed: convergence detection + scheduled platform.
	ProposedSeconds float64
	Platform        string
	Speedup         float64
	// OracleSpeedup uses the energy-oracle design point.
	OracleSpeedup float64
}

// Fig8Result carries the per-workload rows and the averages the paper
// headline numbers come from (5.8x proposed, 6.2x oracle).
type Fig8Result struct {
	Rows           []Fig8Row
	AverageSpeedup float64
	OracleAverage  float64
}

// Fig8 composes scheduling (Fig. 4) and elision (Fig. 7) against the
// Broadwell baseline.
func (h *Harness) Fig8() (*Fig8Result, error) {
	f3, err := h.Fig3()
	if err != nil {
		return nil, err
	}
	scheduler := sched.NewScheduler(f3.Predictor)

	res := &Fig8Result{}
	var sum, osum float64
	for _, w := range h.Suite() {
		name := w.Info.Name
		p := h.Profile(w)
		e := h.Elision(name, 4)
		asn := scheduler.Assign(name, w.ModeledDataBytes())

		baseline := hw.Characterize(p, hw.Broadwell, 4).TimeSeconds
		proposed := hw.Characterize(p.ScaleIterations(e.StoppedAt), asn.Platform, 4).TimeSeconds

		// Oracle: best elided chain count on the better platform (energy
		// oracle; the paper notes it is an energy oracle, so per-workload
		// performance can exceed it).
		oracle := proposed
		for _, chains := range append(oracleChainCounts(name), 4) {
			ec := h.Elision(name, chains)
			if !ec.Fired {
				continue
			}
			for _, plat := range hw.Platforms {
				m := hw.Characterize(p.WithChains(chains).ScaleIterations(ec.StoppedAt), plat, chains)
				if m.TimeSeconds < oracle {
					oracle = m.TimeSeconds
				}
			}
		}

		row := Fig8Row{
			Name:            name,
			BaselineSeconds: baseline,
			ProposedSeconds: proposed,
			Platform:        asn.Platform.Codename,
			Speedup:         baseline / proposed,
			OracleSpeedup:   baseline / oracle,
		}
		res.Rows = append(res.Rows, row)
		sum += row.Speedup
		osum += row.OracleSpeedup
	}
	res.AverageSpeedup = sum / float64(len(res.Rows))
	res.OracleAverage = osum / float64(len(res.Rows))
	return res, nil
}

// ---- §II-B: sampling vs variational inference ----

// VIRow compares ADVI against the NUTS reference on one workload.
type VIRow struct {
	Name string
	// NUTSGradEvals / VIGradEvals are the work totals in the shared
	// unit (gradient evaluations).
	NUTSGradEvals int64
	VIGradEvals   int64
	// KL is the Gaussian KL divergence of the ADVI approximation's
	// samples from the NUTS posterior — the bias the paper warns about.
	KL float64
}

// FigVI runs the §II-B comparison on three representative workloads:
// variational inference is far cheaper per result but has no asymptotic
// exactness guarantee.
func (h *Harness) FigVI() []VIRow {
	var out []VIRow
	for _, name := range []string{"12cities", "ad", "butterfly"} {
		w := h.workload(name)
		nuts := h.FullRun(name, 4)
		ref := diag.FlattenChains(nuts.SecondHalfDraws())

		h.logf("ADVI fit %s...\n", name)
		ev := model.NewEvaluator(w.TapeModel())
		fit := vi.Fit(ev, vi.Config{Iterations: 3000, Seed: h.opt.Seed})
		approx := fit.Sample(len(ref), h.opt.Seed+1)

		out = append(out, VIRow{
			Name:          name,
			NUTSGradEvals: nuts.TotalWork(),
			VIGradEvals:   fit.GradEvals,
			KL:            diag.GaussianKL(approx, ref),
		})
	}
	return out
}

// ---- §VII-A: distribution census ----

// CensusRow counts how many workloads draw on each distribution — the
// analysis behind the paper's accelerator proposal (Gaussian and Cauchy
// sampling units with erf/atan lookup support).
type CensusRow struct {
	Distribution string
	Workloads    int
}

// DistributionCensus tallies distribution usage across the suite, most
// popular first.
func (h *Harness) DistributionCensus() []CensusRow {
	counts := map[string]int{}
	for _, w := range h.Suite() {
		for _, d := range w.Info.Distributions {
			counts[d]++
		}
	}
	out := make([]CensusRow, 0, len(counts))
	for d, c := range counts {
		out = append(out, CensusRow{Distribution: d, Workloads: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workloads != out[j].Workloads {
			return out[i].Workloads > out[j].Workloads
		}
		return out[i].Distribution < out[j].Distribution
	})
	return out
}

// ---- helpers ----

// groundTruth2x runs the paper's ground-truth configuration: the same
// model at double the user iterations.
func (h *Harness) groundTruth2x(name string, iters int) *mcmc.Result {
	w := h.workload(name)
	return mcmc.Run(mcmc.Config{
		Chains:     4,
		Iterations: iters,
		Seed:       h.opt.Seed + 99,
		Parallel:   h.opt.Parallel,
	}, func() mcmc.Target { return model.NewEvaluator(w.Model) })
}

// klAgainst scores a prefix of a run, each chain's draws in
// [iters/2, iters), against a reference sample.
func klAgainst(run *mcmc.Result, iters int, ref [][]float64) float64 {
	var cur [][]float64
	for _, ch := range run.Chains {
		end := iters
		if end > ch.Samples.Len() {
			end = ch.Samples.Len()
		}
		cur = append(cur, ch.Samples.RowsRange(end/2, end)...)
	}
	return diag.GaussianKL(cur, ref)
}
