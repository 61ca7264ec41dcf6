package mcmc_test

import (
	"encoding/binary"
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
// values those options defaulted to. Like the density pins in
// internal/workloads they depend on the platform's exp and log.
func TestSamplerDrawBitsUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bit patterns were recorded on amd64")
	}
	w, err := workloads.New("12cities", 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		kind        mcmc.SamplerKind
		draws, ckpt uint64
	}{
		{mcmc.MetropolisHastings, 0x33b49fabae1912a3, 0xf2f7f68de46c0467},
		{mcmc.HMC, 0x728dc30f57046ddd, 0xdb1a42231ce42460},
		{mcmc.NUTS, 0xfc790b39b54f367d, 0xcfc0bc37c1497659},
	} {
		var last *mcmc.Checkpoint
		res := mcmc.Run(mcmc.Config{
			Chains: 4, Iterations: 300, Sampler: want.kind, Seed: 11, Parallel: true,
			CheckpointEvery: 100, CheckpointSink: func(ck *mcmc.Checkpoint) { last = ck },
		}, func() mcmc.Target { return model.NewEvaluator(w.Model) })
		h := fnv.New64a()
		for _, c := range res.Chains {
			s := c.Samples
			for i := 0; i < s.Len(); i++ {
				for d := 0; d < s.Dim(); d++ {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(s.At(i, d))))
				}
			}
		}
		if last == nil {
			t.Fatalf("%v: no checkpoint taken", want.kind)
		}
		if got, ck := h.Sum64(), last.Fingerprint(); got != want.draws || ck != want.ckpt {
			t.Errorf("%v: draw hash %#x, checkpoint fingerprint %#x; want %#x, %#x",
				want.kind, got, ck, want.draws, want.ckpt)
		}
	}
}
