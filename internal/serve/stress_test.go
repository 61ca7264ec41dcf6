package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bayessuite/internal/elide"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/workloads"
)

// stressSpecs builds 32 job specs spanning seeds, samplers, and
// elide/no-elide, with deliberate duplicates so identical specs race each
// other through the queue.
func stressSpecs() []JobSpec {
	specs := make([]JobSpec, 32)
	for i := range specs {
		specs[i] = JobSpec{
			Workload:   "12cities",
			Scale:      0.1,
			Iterations: 150,
			Chains:     2,
			Seed:       uint64(i % 8),
			Sampler:    []string{"nuts", "mh"}[i%2],
			NoElide:    i%4 >= 2,
		}
	}
	return specs
}

// referenceRun executes a spec's exact sampling configuration serially,
// outside the server, the way cmd/bayessuite would.
func referenceRun(t *testing.T, spec JobSpec) *mcmc.Result {
	t.Helper()
	w, err := workloads.New(spec.Workload, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := mcmc.ParseSampler(spec.Sampler)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mcmc.Config{
		Chains:     spec.Chains,
		Iterations: spec.Iterations,
		Sampler:    kind,
		Seed:       spec.Seed,
	}
	if !spec.NoElide {
		cfg.StopRule = elide.NewDetector()
	}
	return mcmc.Run(cfg, func() mcmc.Target { return model.NewEvaluator(w.Model) })
}

func specKey(s JobSpec) string {
	return fmt.Sprintf("%s|%g|%d|%d|%d|%s|%v", s.Workload, s.Scale, s.Iterations, s.Chains, s.Seed, s.Sampler, s.NoElide)
}

// sameDraws requires bit-identical draw stores.
func sameDraws(t *testing.T, label string, got, want *mcmc.Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Elided != want.Elided {
		t.Fatalf("%s: iterations/elided (%d, %v) vs reference (%d, %v)",
			label, got.Iterations, got.Elided, want.Iterations, want.Elided)
	}
	for c := range want.Chains {
		g, w := got.Chains[c].Samples, want.Chains[c].Samples
		if g.Len() != w.Len() || g.Dim() != w.Dim() {
			t.Fatalf("%s chain %d: shape (%d×%d) vs (%d×%d)", label, c, g.Len(), g.Dim(), w.Len(), w.Dim())
		}
		for i := 0; i < w.Len(); i++ {
			for d := 0; d < w.Dim(); d++ {
				if g.At(i, d) != w.At(i, d) {
					t.Fatalf("%s chain %d draw %d dim %d: %v vs %v — results depend on queue interleaving",
						label, c, i, d, g.At(i, d), w.At(i, d))
				}
			}
		}
	}
}

// TestConcurrentSeededJobsBitIdentical is the determinism stress test:
// 32 seeded jobs submitted concurrently onto a busy worker pool must all
// return draws bit-identical to serial runs of the same specs. Run under
// -race this also hammers the admission, progress, and R̂-trace paths.
func TestConcurrentSeededJobsBitIdentical(t *testing.T) {
	specs := stressSpecs()
	s := NewServer(Config{Workers: 8, QueueCap: len(specs), Predictor: testPredictor()})

	jobs := make([]*Job, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			jobs[i], errs[i] = s.Submit(spec)
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	refs := make(map[string]*mcmc.Result)
	for i, job := range jobs {
		st := waitDone(t, job, 120*time.Second)
		if st.State != Done {
			t.Fatalf("job %d ended %s (%s)", i, st.State, st.Error)
		}
		key := specKey(specs[i])
		if refs[key] == nil {
			refs[key] = referenceRun(t, specs[i])
		}
		sameDraws(t, fmt.Sprintf("job %d (%s)", i, key), job.Raw(), refs[key])
	}
}

// TestCollapsedKernelJobsBitIdentical runs each workload whose likelihood
// is a collapsed or fused single-node kernel (unbatchable, so the segment
// runner with no coalescer) as two copies of one seeded spec side by
// side: both must reproduce the serial reference bit for bit, elision
// point included.
func TestCollapsedKernelJobsBitIdentical(t *testing.T) {
	var specs []JobSpec
	for _, c := range []struct {
		name  string
		scale float64
	}{{"survival", 0.25}, {"butterfly", 0.25}, {"racial", 0.25}, {"disease", 0.03}, {"votes", 0.02}} {
		spec := JobSpec{Workload: c.name, Scale: c.scale, Iterations: 300, Chains: 2, Seed: 11, Sampler: "nuts"}
		specs = append(specs, spec, spec)
	}
	s := NewServer(Config{Workers: 2, QueueCap: len(specs), Predictor: testPredictor()})
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		var err error
		if jobs[i], err = s.Submit(spec); err != nil {
			t.Fatalf("submit %s: %v", spec.Workload, err)
		}
	}
	var ref *mcmc.Result
	for i, job := range jobs {
		st := waitDone(t, job, 120*time.Second)
		if st.State != Done {
			t.Fatalf("%s ended %s (%s)", specs[i].Workload, st.State, st.Error)
		}
		if st.GradBatch != nil {
			t.Errorf("%s: job reports fused sweeps, want per-chain gradients", specs[i].Workload)
		}
		if i%2 == 0 {
			ref = referenceRun(t, specs[i])
		}
		sameDraws(t, specs[i].Workload, job.Raw(), ref)
	}
}

// TestBitIdenticalToBayessuiteConfig pins the acceptance criterion: a
// served 12cities job reproduces, bit for bit, the draws of the
// equivalent cmd/bayessuite invocation (same seed, elision on), and the
// elision point matches.
func TestBitIdenticalToBayessuiteConfig(t *testing.T) {
	spec := JobSpec{Workload: "12cities", Scale: 0.25, Seed: 7, Iterations: 2000}
	s := NewServer(Config{Workers: 2, QueueCap: 4, Predictor: testPredictor()})
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, job, 120*time.Second)
	if st.State != Done {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	if !st.Elided {
		t.Fatal("12cities job did not elide")
	}
	if len(st.RHatTrace) == 0 {
		t.Fatal("no R̂ trajectory recorded")
	}

	// cmd/bayessuite's exact configuration for
	//   bayessuite -workload 12cities -scale 0.25 -seed 7 -elide
	w, err := workloads.New("12cities", 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	det := elide.NewDetector()
	ref := mcmc.Run(mcmc.Config{
		Chains:     4,
		Iterations: 2000,
		Sampler:    mcmc.NUTS,
		Seed:       7,
		Parallel:   true,
		StopRule:   det,
	}, func() mcmc.Target { return model.NewEvaluator(w.Model) })

	sameDraws(t, "bayessuite-equivalent", job.Raw(), ref)
	if det.Fired != st.Progress {
		t.Fatalf("elision fired at %d in the reference, %d via the server", det.Fired, st.Progress)
	}
	last := st.RHatTrace[len(st.RHatTrace)-1]
	refLast := det.Trace[len(det.Trace)-1]
	if last.Iteration != refLast.Iteration || last.RHat != refLast.RHat {
		t.Fatalf("served R̂ trace end (%d, %v) vs reference (%d, %v)",
			last.Iteration, last.RHat, refLast.Iteration, refLast.RHat)
	}
}
