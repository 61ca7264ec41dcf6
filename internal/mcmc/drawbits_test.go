package mcmc_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"bayessuite/internal/mcmc"
	"bayessuite/internal/model"
	"bayessuite/internal/workloads"
)

// TestSamplerDrawBitsUnchanged pins what MH, HMC and NUTS draw on
// 12cities@0.25 (4 parallel chains, 300 iterations, seed 11, a checkpoint
// every 100 iterations): an FNV-1a hash over every draw's bit pattern and
// the last checkpoint's Fingerprint, which covers the adapted step size,
// metric and proposal scale. The words were recorded while the sampler
// tuning (target acceptance, tree depth, proposal scale, initial radius)
// was still set through Config, so they hold the package constants to the
// values those options defaulted to. A third word per sampler, recorded
// while HMC and NUTS still kept separate copies of their warm-up and
// checkpoint code, pins each chain's final StepSize and AcceptRate bits
// (what EndWarmup leaves), and a run resumed from the iteration-100
// checkpoint, inside warm-up, must draw the same bits as the run it came
// from. Like the density pins in internal/workloads they depend on the
// platform's exp and log.
func TestSamplerDrawBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bit patterns were recorded on amd64")
	}
	w, err := workloads.New("12cities", 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		kind              mcmc.SamplerKind
		draws, ckpt, tune uint64
	}{
		{mcmc.MetropolisHastings, 0x33b49fabae1912a3, 0xf2f7f68de46c0467, 0x66e0252c734486dc},
		{mcmc.HMC, 0x728dc30f57046ddd, 0xdb1a42231ce42460, 0xcc67908dfed4140c},
		{mcmc.NUTS, 0xfc790b39b54f367d, 0xcfc0bc37c1497659, 0x7697abe29e662ee5},
	} {
		var cks []*mcmc.Checkpoint
		cfg := mcmc.Config{
			Chains: 4, Iterations: 300, Sampler: want.kind, Seed: 11, Parallel: true,
			CheckpointEvery: 100, CheckpointSink: func(ck *mcmc.Checkpoint) { cks = append(cks, ck) },
		}
		factory := func() mcmc.Target { return model.NewEvaluator(w.Model) }
		res := mcmc.Run(cfg, factory)
		if len(cks) != 3 || cks[0].Iteration != 100 {
			t.Fatalf("%v: %d checkpoints taken, want 3 starting at iteration 100", want.kind, len(cks))
		}
		tune := fnv.New64a()
		for _, c := range res.Chains {
			writeBits(tune, c.StepSize)
			writeBits(tune, c.AcceptRate)
		}
		got, ck, tuned := drawHash(res), cks[2].Fingerprint(), tune.Sum64()
		if got != want.draws || ck != want.ckpt || tuned != want.tune {
			t.Errorf("%v: draw hash %#x, checkpoint fingerprint %#x, step size and acceptance %#x; want %#x, %#x, %#x",
				want.kind, got, ck, tuned, want.draws, want.ckpt, want.tune)
		}

		cfg.CheckpointSink = nil
		cfg.ResumeFrom = cks[0]
		if resumed := drawHash(mcmc.Run(cfg, factory)); resumed != want.draws {
			t.Errorf("%v: run resumed at iteration 100 has draw hash %#x, want %#x", want.kind, resumed, want.draws)
		}
	}
}

// drawHash is an FNV-1a hash over the bit pattern of every draw of res.
func drawHash(res *mcmc.Result) uint64 {
	h := fnv.New64a()
	for _, c := range res.Chains {
		s := c.Samples
		for i := 0; i < s.Len(); i++ {
			for d := 0; d < s.Dim(); d++ {
				writeBits(h, s.At(i, d))
			}
		}
	}
	return h.Sum64()
}

func writeBits(h hash.Hash64, v float64) {
	h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
}
