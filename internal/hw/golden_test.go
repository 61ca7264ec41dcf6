package hw_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"bayessuite/internal/hw"
	"bayessuite/internal/perf"
	"bayessuite/internal/sched"
	"bayessuite/internal/serve"
	"bayessuite/internal/workloads"
)

// updateGolden rewrites testdata/golden_llc.txt from the code under test.
// The committed file was written this way at the commit before the
// simulator core was rewritten and memoised (ced2cbb); regenerate it only
// for a change that is meant to move the model's numbers.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_llc.txt")

const (
	goldenPath = "testdata/golden_llc.txt"
	goldenSeed = 7 // bayesd's default -seed
)

// goldenLines characterises the grid — ten workloads × scales {1, 0.5,
// 0.25} × {Skylake, Broadwell} × cores {1, 2, 4} — one line per point with
// every float as its IEEE-754 bits.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, name := range workloads.Names() {
		for _, scale := range []float64{1, 0.5, 0.25} {
			w, err := workloads.New(name, scale, goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			p := perf.Static(w)
			for _, plat := range hw.Platforms {
				for _, cores := range []int{1, 2, 4} {
					m := hw.Characterize(p, plat, cores)
					out = append(out, fmt.Sprintf("%s %g %s %d stream=%d llc=%016x mpki=%016x ipc=%016x bw=%016x time=%016x power=%016x energy=%016x",
						name, scale, plat.Codename, cores, p.StreamBytes(),
						math.Float64bits(hw.SimulateLLC(p, plat, cores)),
						math.Float64bits(m.LLCMPKI), math.Float64bits(m.IPC),
						math.Float64bits(m.BandwidthGBs), math.Float64bits(m.TimeSeconds),
						math.Float64bits(m.PowerWatts), math.Float64bits(m.EnergyJoules)))
				}
			}
		}
	}
	return out
}

// TestGoldenGridBitIdentical pins SimulateLLC and Characterize to the
// bits the straightforward simulator produced: the mask set index, the
// closure-free trace generator and the memo table are optimisations, not
// model changes.
func TestGoldenGridBitIdentical(t *testing.T) {
	got := goldenLines(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != 180 || len(got) != len(want) {
		t.Fatalf("grid has %d points, golden file %d, want 180", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d differs from the parent commit\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

var calibSink []sched.Point

// BenchmarkSuiteCalibration times bayesd's start-up calibration — thirty
// datasets, tape measurements and LLC simulations on GOMAXPROCS
// goroutines. cold is what a daemon pays, once; warm is a second
// calibration in one process (a test binary that boots several servers),
// every simulation a memo hit. It lives here and not beside
// serve.SuiteCalibration because only this package's tests can empty the
// simulator's table.
func BenchmarkSuiteCalibration(b *testing.B) {
	run := func(b *testing.B, cold bool) {
		for i := 0; i < b.N; i++ {
			if cold {
				hw.ResetLLCMemo()
			}
			pts, err := serve.SuiteCalibration(goldenSeed)
			if err != nil {
				b.Fatal(err)
			}
			calibSink = pts
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("warm", func(b *testing.B) { run(b, false) })
}
