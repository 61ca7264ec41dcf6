package serve

import (
	"runtime"
	"sync"

	"bayessuite/internal/hw"
	"bayessuite/internal/perf"
	"bayessuite/internal/sched"
	"bayessuite/internal/workloads"
)

// SuiteCalibration builds the predictor's calibration set the way the
// paper does (Fig. 3): every BayesSuite workload at three dataset scales,
// each point pairing the modeled data size with the simulated 4-core LLC
// MPKI on the small-LLC platform. bayesd runs this once at startup; tests
// inject synthetic points instead. The thirty points are independent, so
// they are computed on up to GOMAXPROCS goroutines and stored by index:
// the list and its order do not depend on the parallelism.
func SuiteCalibration(seed uint64) ([]sched.Point, error) {
	names := workloads.Names()
	fracs := []float64{1, 0.5, 0.25}
	pts := make([]sched.Point, len(names)*len(fracs))
	errs := make([]error, len(pts))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(pts) {
		workers = len(pts)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				name := names[i/len(fracs)]
				w, err := workloads.New(name, fracs[i%len(fracs)], seed)
				if err != nil {
					errs[i] = err
					continue
				}
				pts[i] = sched.Point{
					Name:          name,
					ModeledDataKB: float64(w.ModeledDataBytes()) / 1024,
					LLCMPKI4Core:  hw.SimulateLLC(perf.Static(w), hw.Skylake, 4),
				}
			}
		}()
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}
