package mcmc

import (
	"math"
	"strings"
	"testing"
)

// collectSink returns a CheckpointSink that appends every checkpoint to a
// slice.
func collectSink(dst *[]*Checkpoint) func(*Checkpoint) {
	return func(ck *Checkpoint) { *dst = append(*dst, ck) }
}

// sameRun extends sameDraws with the per-draw log densities and work
// accounting — the full bit-identity contract a resumed run must meet.
func sameRun(t *testing.T, label string, a, b *Result) {
	t.Helper()
	sameDraws(t, label, a, b)
	for c := range a.Chains {
		ca, cb := a.Chains[c], b.Chains[c]
		if len(ca.LogDensity) != len(cb.LogDensity) {
			t.Fatalf("%s: chain %d log-density length %d vs %d", label, c, len(ca.LogDensity), len(cb.LogDensity))
		}
		for i := range ca.LogDensity {
			if math.Float64bits(ca.LogDensity[i]) != math.Float64bits(cb.LogDensity[i]) {
				t.Fatalf("%s: chain %d log density %d: %v vs %v", label, c, i, ca.LogDensity[i], cb.LogDensity[i])
			}
			if ca.Work[i] != cb.Work[i] {
				t.Fatalf("%s: chain %d work %d: %d vs %d", label, c, i, ca.Work[i], cb.Work[i])
			}
		}
		if ca.Divergences != cb.Divergences {
			t.Errorf("%s: chain %d divergences %d vs %d", label, c, ca.Divergences, cb.Divergences)
		}
		if ca.StepSize != cb.StepSize {
			t.Errorf("%s: chain %d step size %v vs %v", label, c, ca.StepSize, cb.StepSize)
		}
	}
}

// TestCheckpointResumeBitIdentical is the determinism-under-resume
// contract: for every sampler, a run resumed from a mid-run checkpoint
// must reproduce the uninterrupted run bit for bit — in one segment per
// checkpoint, with a StopRule segmenting at every checkInterval, and with
// parallel chains.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, kind := range []SamplerKind{MetropolisHastings, HMC, NUTS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			base := Config{Chains: 3, Iterations: 300, Sampler: kind, Seed: 17}
			target := func() Target { return newGaussian() }

			var cks []*Checkpoint
			ckCfg := base
			ckCfg.CheckpointEvery = 100
			ckCfg.CheckpointSink = collectSink(&cks)
			ref := Run(ckCfg, target)
			if len(cks) != 3 {
				t.Fatalf("expected 3 checkpoints, got %d", len(cks))
			}
			if cks[1].Iteration != 200 {
				t.Fatalf("checkpoint 1 at iteration %d, want 200", cks[1].Iteration)
			}

			// The checkpointed run must itself match a plain one-segment
			// run — checkpoint capture must not perturb sampling.
			plain := Run(base, target)
			sameRun(t, kind.String()+" checkpointing-vs-plain", plain, ref)

			// Resume without a StopRule.
			freeCfg := base
			freeCfg.ResumeFrom = cks[1]
			sameRun(t, kind.String()+" free resume", ref, Run(freeCfg, target))

			// Resume with a StopRule and parallel chains, from the
			// serialized form (exercising the binary round trip in anger).
			decoded, err := DecodeCheckpoint(cks[0].Encode())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			checkCfg := base
			checkCfg.ResumeFrom = decoded
			checkCfg.Parallel = true
			checkCfg.StopRule = neverFire{}
			sameRun(t, kind.String()+" checked resume", ref, Run(checkCfg, target))
		})
	}
}

// TestResumeAtBudget: resuming from a checkpoint taken at the full budget
// returns the recorded draws without stepping further.
func TestResumeAtBudget(t *testing.T) {
	var cks []*Checkpoint
	cfg := Config{Chains: 2, Iterations: 100, Sampler: HMC, Seed: 5,
		CheckpointEvery: 100, CheckpointSink: collectSink(&cks)}
	target := func() Target { return newGaussian() }
	ref := Run(cfg, target)
	if len(cks) == 0 || cks[len(cks)-1].Iteration != 100 {
		t.Fatalf("expected a final checkpoint at iteration 100, got %+v", cks)
	}
	res := Run(Config{Chains: 2, Iterations: 100, Sampler: HMC, Seed: 5,
		ResumeFrom: cks[len(cks)-1]}, target)
	sameRun(t, "resume-at-budget", ref, res)
	if res.Iterations != 100 || res.Interrupted {
		t.Errorf("resume at budget: iterations %d interrupted %v", res.Iterations, res.Interrupted)
	}
}

// TestCheckpointRoundTripNonFinite: the binary format must round-trip NaN
// and ±Inf bit-exactly (the reason it is not JSON).
func TestCheckpointRoundTripNonFinite(t *testing.T) {
	var cks []*Checkpoint
	Run(Config{Chains: 2, Iterations: 60, Sampler: NUTS, Seed: 2,
		CheckpointEvery: 30, CheckpointSink: collectSink(&cks)},
		func() Target { return newGaussian() })
	ck := cks[0]
	// Poison a few fields with the values JSON cannot carry.
	ck.Chains[0].State.LogP = math.NaN()
	ck.Chains[0].State.Grad[0] = math.Inf(1)
	ck.Chains[1].State.Q[1] = math.Inf(-1)
	ck.Chains[1].AcceptSum = math.Float64frombits(0x7ff8dead_beef0001) // NaN payload

	rt, err := DecodeCheckpoint(ck.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	checks := []struct {
		name string
		a, b float64
	}{
		{"LogP", ck.Chains[0].State.LogP, rt.Chains[0].State.LogP},
		{"Grad[0]", ck.Chains[0].State.Grad[0], rt.Chains[0].State.Grad[0]},
		{"Q[1]", ck.Chains[1].State.Q[1], rt.Chains[1].State.Q[1]},
		{"AcceptSum", ck.Chains[1].AcceptSum, rt.Chains[1].AcceptSum},
	}
	for _, c := range checks {
		if math.Float64bits(c.a) != math.Float64bits(c.b) {
			t.Errorf("%s: %x round-tripped to %x", c.name, math.Float64bits(c.a), math.Float64bits(c.b))
		}
	}
}

// corruptCheckpoints returns an encoded checkpoint and corruptions of it
// that must fail to decode.
func corruptCheckpoints() (good []byte, cases []struct {
	name string
	data []byte
}) {
	var cks []*Checkpoint
	Run(Config{Chains: 2, Iterations: 40, Sampler: MetropolisHastings, Seed: 1,
		CheckpointEvery: 20, CheckpointSink: collectSink(&cks)},
		func() Target { return newGaussian() })
	good = cks[0].Encode()
	// The chain-count field sits right before the chain payloads; instead
	// of hunting offsets, corrupt the version for a distinct error.
	badVersion := append([]byte(nil), good...)
	badVersion[4] = 0xff
	return good, []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), good[4:]...)},
		{"truncated", good[:len(good)/2]},
		{"trailing", append(append([]byte(nil), good...), 0)},
		{"version", badVersion},
	}
}

// TestCheckpointDecodeErrors: corruption is reported, never silently
// accepted.
func TestCheckpointDecodeErrors(t *testing.T) {
	_, cases := corruptCheckpoints()
	for _, c := range cases {
		_, err := DecodeCheckpoint(c.data)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt input", c.name)
		}
		if c.name == "version" && (err == nil || !strings.Contains(err.Error(), "version")) {
			t.Errorf("version corruption: got %v", err)
		}
	}
}

// TestCheckpointValidate: every config mismatch is refused with a
// descriptive error.
func TestCheckpointValidate(t *testing.T) {
	var cks []*Checkpoint
	cfg := Config{Chains: 2, Iterations: 40, Sampler: HMC, Seed: 1,
		CheckpointEvery: 20, CheckpointSink: collectSink(&cks)}
	Run(cfg, func() Target { return newGaussian() })
	ck := cks[0]
	okCfg := Config{Chains: 2, Iterations: 40, Sampler: HMC, Seed: 1}
	if err := ck.Validate(okCfg, 3); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	mismatches := []struct {
		name string
		mut  func(*Config, *Checkpoint) int // returns dim
	}{
		{"sampler", func(c *Config, _ *Checkpoint) int { c.Sampler = NUTS; return 3 }},
		{"chains", func(c *Config, _ *Checkpoint) int { c.Chains = 4; return 3 }},
		{"budget", func(c *Config, _ *Checkpoint) int { c.Iterations = 80; return 3 }},
		{"warmup", func(_ *Config, k *Checkpoint) int { k.WarmupFrac = 0.25; return 3 }},
		{"seed", func(c *Config, _ *Checkpoint) int { c.Seed = 2; return 3 }},
		{"dim", func(*Config, *Checkpoint) int { return 5 }},
	}
	for _, m := range mismatches {
		c, k := okCfg, *ck
		dim := m.mut(&c, &k)
		if err := k.Validate(c, dim); err == nil {
			t.Errorf("%s mismatch accepted", m.name)
		}
	}
	// RunContext refuses to resume from an invalid checkpoint.
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("resume with mismatched config did not panic")
			}
		}()
		bad := okCfg
		bad.Sampler = NUTS
		bad.ResumeFrom = ck
		Run(bad, func() Target { return newGaussian() })
	}()
}
