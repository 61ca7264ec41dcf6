// Package dse implements the paper's design-space exploration (§VI-B):
// sweeping the number of CPU cores, the number of chains, and the number
// of sampling iterations for a workload, evaluating each design point's
// latency and energy on the simulated platform, and locating the energy
// oracle — the cheapest point that still delivers acceptable result
// quality. Convergence-detection ("triangle") points come from real
// elision runs supplied by the caller.
package dse

import (
	"math"
	"sort"

	"bayessuite/internal/hw"
)

// Point is one design point in the (cores, chains, iterations) space.
type Point struct {
	Cores      int
	Chains     int
	Iterations int

	LatencySeconds float64
	EnergyJoules   float64

	// KL is the result-quality divergence from ground truth (NaN when
	// unknown); Acceptable reports KL below the quality threshold.
	KL         float64
	Acceptable bool

	// Kind tags the paper's Figure 6 marker classes.
	Kind PointKind
}

// PointKind labels design points as in Figure 6.
type PointKind int

const (
	// GridPoint is a plain swept design point.
	GridPoint PointKind = iota
	// UserPoint is the original user setting (blue star).
	UserPoint
	// ElisionPoint is achievable with runtime convergence detection
	// (triangles).
	ElisionPoint
	// OraclePoint is the minimum-energy acceptable point (red star).
	OraclePoint
)

// String names the marker class.
func (k PointKind) String() string {
	switch k {
	case UserPoint:
		return "user"
	case ElisionPoint:
		return "elision"
	case OraclePoint:
		return "oracle"
	default:
		return "grid"
	}
}

// Quality maps (chains, iterations) to a KL divergence against ground
// truth. Implementations evaluate real sampler draws; see the bench
// harness.
type Quality interface {
	KL(chains, iterations int) float64
}

// Config drives one exploration.
type Config struct {
	// Profile is the measured full-chain profile (4 chains at the user
	// iteration count).
	Profile *hw.Profile
	// Platform hosts the design points.
	Platform hw.Platform
	// Cores/Chains axes (paper: {1, 2, 4} x {1, 2, 4}).
	Cores  []int
	Chains []int
	// IterGrid lists iteration counts to sweep (fractions of the user
	// setting are typical).
	IterGrid []int
	// UserIterations/UserChains is the original setting (blue star).
	UserIterations, UserChains int
	// ElisionIters maps chain count -> iterations at which convergence
	// detection fired (from real runs); 0 entries are skipped.
	ElisionIters map[int]int
	// Quality scores design points; nil marks every point acceptable.
	Quality Quality
	// KLThreshold is the acceptable-quality bound (default 0.05).
	KLThreshold float64
}

// Result is the explored space.
type Result struct {
	Points []Point
	User   Point
	Oracle Point
	// Elision holds the triangle points (one per cores value at each
	// chain count that has a detection iteration).
	Elision []Point
}

// Explore sweeps the space and classifies the paper's marker points.
func Explore(cfg Config) *Result {
	if cfg.KLThreshold == 0 {
		cfg.KLThreshold = 0.05
	}
	if len(cfg.Cores) == 0 {
		cfg.Cores = []int{1, 2, 4}
	}
	if len(cfg.Chains) == 0 {
		cfg.Chains = []int{1, 2, 4}
	}
	res := &Result{}

	// The LLC simulation behind Characterize reads the profile's
	// footprint and min(cores, chains), never the iteration count: hw
	// memoises it, so the iterations axis costs arithmetic only.
	eval := func(cores, chains, iters int, kind PointKind) Point {
		p := cfg.Profile.WithChains(chains).ScaleIterations(iters)
		m := hw.Characterize(p, cfg.Platform, cores)
		pt := Point{
			Cores: cores, Chains: chains, Iterations: iters,
			LatencySeconds: m.TimeSeconds, EnergyJoules: m.EnergyJoules,
			KL:   math.NaN(),
			Kind: kind,
		}
		if cfg.Quality != nil {
			pt.KL = cfg.Quality.KL(chains, iters)
			pt.Acceptable = pt.KL <= cfg.KLThreshold
		} else {
			pt.Acceptable = true
		}
		return pt
	}

	for _, chains := range cfg.Chains {
		for _, cores := range cfg.Cores {
			if cores > chains {
				// Extra cores beyond the chain count are idle; the point
				// is dominated by cores == chains.
				continue
			}
			for _, iters := range cfg.IterGrid {
				res.Points = append(res.Points, eval(cores, chains, iters, GridPoint))
			}
		}
	}

	// User setting (paper: always 4 chains, full iterations, all cores).
	res.User = eval(maxInt(cfg.Cores), cfg.UserChains, cfg.UserIterations, UserPoint)

	// Elision triangles: convergence detection under 1, 2, 4 cores at the
	// as-configured chain count.
	for _, cores := range cfg.Cores {
		for chains, iters := range cfg.ElisionIters {
			if iters == 0 || cores > chains {
				continue
			}
			res.Elision = append(res.Elision, eval(cores, chains, iters, ElisionPoint))
		}
	}
	sort.Slice(res.Elision, func(i, j int) bool {
		if res.Elision[i].Chains != res.Elision[j].Chains {
			return res.Elision[i].Chains < res.Elision[j].Chains
		}
		return res.Elision[i].Cores < res.Elision[j].Cores
	})

	// Oracle: minimum-energy acceptable point across the grid.
	best := -1
	for i, p := range res.Points {
		if !p.Acceptable {
			continue
		}
		if best < 0 || p.EnergyJoules < res.Points[best].EnergyJoules {
			best = i
		}
	}
	if best >= 0 {
		res.Oracle = res.Points[best]
		res.Oracle.Kind = OraclePoint
	} else {
		res.Oracle = res.User
		res.Oracle.Kind = OraclePoint
	}
	return res
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
