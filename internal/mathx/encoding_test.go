package mathx_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"bayessuite/internal/mathx"
	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/workloads"
)

// The registry workloads whose likelihood runs through LogisticBlock or
// ExpBlock, at the scales the benchmark mixes use; tickets (p = 13, with
// group effects) and ad (p = 16) also run DotRows and AxpyRows. The last
// five are not batchable, so they run only in the free and segmented
// modes. Of butterfly's two calls (2n and n values for n species, 28 and
// 14 here) the second, and survival's (22 values) both, end in a partial
// four-lane group.
var linkWorkloads = []struct {
	name      string
	scale     float64
	batchable bool
}{
	{"tickets", 0.05, true}, {"memory", 0.3, true}, {"ad", 0.25, true}, {"12cities", 0.25, true},
	{"disease", 0.03, false}, {"votes", 0.02, false}, {"racial", 0.25, false},
	{"butterfly", 0.5, false}, {"survival", 0.5, false},
}

type neverStop struct{}

func (neverStop) ShouldStop([]*mcmc.Samples, int) bool { return false }

// runnerModes are the ways a job's chains are driven: in one segment,
// meeting at every 50-iteration segment end, and meeting there with
// gradients fused by the coalescer — which the runner builds only at
// GOMAXPROCS 1, so the batched mode runs there.
var runnerModes = []struct {
	name string
	run  func(cfg mcmc.Config, m model.Model) *mcmc.Result
}{
	{"free", func(cfg mcmc.Config, m model.Model) *mcmc.Result {
		return mcmc.Run(cfg, func() mcmc.Target { return model.NewEvaluator(m) })
	}},
	{"segmented", func(cfg mcmc.Config, m model.Model) *mcmc.Result {
		if cfg.CheckpointEvery == 0 {
			cfg.StopRule = neverStop{}
		}
		return mcmc.Run(cfg, func() mcmc.Target { return model.NewEvaluator(m) })
	}},
	{"batched", func(cfg mcmc.Config, m model.Model) *mcmc.Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		if cfg.CheckpointEvery == 0 {
			cfg.StopRule = neverStop{}
		}
		be, ok := model.NewBatchEvaluator(m, cfg.Chains)
		if !ok {
			panic("not batchable")
		}
		cfg.BatchGrad = be.LogDensityGradBatch
		next := 0
		return mcmc.Run(cfg, func() mcmc.Target { next++; return be.Chain(next - 1) })
	}},
}

// sameRun requires two runs to agree bit for bit in draws, log densities
// and per-iteration work.
func sameRun(t *testing.T, label string, a, b *mcmc.Result) {
	t.Helper()
	if a.Iterations != b.Iterations || a.TotalWork() != b.TotalWork() {
		t.Fatalf("%s: iterations %d vs %d, work_evals %d vs %d", label, a.Iterations, b.Iterations, a.TotalWork(), b.TotalWork())
	}
	for c := range a.Chains {
		sa, sb := a.Chains[c].Samples, b.Chains[c].Samples
		if sa.Len() != sb.Len() {
			t.Fatalf("%s: chain %d has %d vs %d draws", label, c, sa.Len(), sb.Len())
		}
		for i := 0; i < sa.Len(); i++ {
			for d := 0; d < sa.Dim(); d++ {
				if math.Float64bits(sa.At(i, d)) != math.Float64bits(sb.At(i, d)) {
					t.Fatalf("%s: chain %d draw %d dim %d: %.17g vs %.17g", label, c, i, d, sa.At(i, d), sb.At(i, d))
				}
			}
			if math.Float64bits(a.Chains[c].LogDensity[i]) != math.Float64bits(b.Chains[c].LogDensity[i]) ||
				a.Chains[c].Work[i] != b.Chains[c].Work[i] {
				t.Fatalf("%s: chain %d iteration %d: log density or work differs", label, c, i)
			}
		}
	}
}

// TestEncodingsSampleIdentically: seeded NUTS and HMC runs of every
// link-backed workload produce the same bits with the vector encoding and
// with the Go one, in every runner mode it supports and at GOMAXPROCS 1, 2
// and 8.
func TestEncodingsSampleIdentically(t *testing.T) {
	if mathx.VectorISA() == "generic" {
		t.Skip("no vector encoding on this CPU")
	}
	for _, w := range linkWorkloads {
		wl, err := workloads.New(w.name, w.scale, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []mcmc.SamplerKind{mcmc.NUTS, mcmc.HMC} {
			cfg := mcmc.Config{Chains: 3, Iterations: 30, Sampler: kind, Seed: 23, Parallel: true}
			for _, mode := range runnerModes {
				if mode.name == "batched" && !w.batchable {
					continue
				}
				for _, procs := range []int{1, 2, 8} {
					label := fmt.Sprintf("%s %v %s GOMAXPROCS %d", w.name, kind, mode.name, procs)
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						vector := mode.run(cfg, wl.Model)
						defer mathx.ForceGeneric()()
						sameRun(t, label, vector, mode.run(cfg, wl.Model))
					}()
				}
			}
		}
	}
}

// TestCheckpointResumesAcrossEncodings: a BSCK checkpoint written mid-run
// under one encoding, decoded and resumed under the other, finishes with
// the bits of the uninterrupted run — a job may migrate between a vector
// worker and a generic one.
func TestCheckpointResumesAcrossEncodings(t *testing.T) {
	if mathx.VectorISA() == "generic" {
		t.Skip("no vector encoding on this CPU")
	}
	for _, w := range linkWorkloads {
		wl, err := workloads.New(w.name, w.scale, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range runnerModes[1:] {
			if mode.name == "batched" && !w.batchable {
				continue
			}
			base := mcmc.Config{Chains: 3, Iterations: 40, Seed: 29, Parallel: true}
			for _, genericFirst := range []bool{false, true} {
				label := fmt.Sprintf("%s %s generic-first=%v", w.name, mode.name, genericFirst)
				runAs := func(generic bool, cfg mcmc.Config) *mcmc.Result {
					if generic {
						defer mathx.ForceGeneric()()
					}
					return mode.run(cfg, wl.Model)
				}
				var mid []byte
				ckCfg := base
				ckCfg.CheckpointEvery = 20
				ckCfg.CheckpointSink = func(ck *mcmc.Checkpoint) {
					if ck.Iteration == 20 {
						mid = ck.Encode()
					}
				}
				ref := runAs(genericFirst, ckCfg)
				ck, err := mcmc.DecodeCheckpoint(mid)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				resCfg := base
				resCfg.ResumeFrom = ck
				sameRun(t, label, ref, runAs(!genericFirst, resCfg))
			}
		}
	}
}
