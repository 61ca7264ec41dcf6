package mcmc

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bayessuite/internal/rng"
)

// Checkpoint/resume. A checkpoint is a complete, versioned snapshot of a
// multi-chain run at an aligned iteration boundary: every chain's
// position, adaptation state (step size dual averaging, mass-matrix
// Welford moments, MH proposal scale), RNG stream, and draw prefix. A run
// resumed from a checkpoint is bit-identical, draw for draw, to the
// uninterrupted run — the determinism suite proves it — so a crashed or
// preempted job loses at most one checkpoint interval of work instead of
// everything. Checkpoints are taken where the chains meet at a segment's
// end (the chains must be aligned), travel in memory as *Checkpoint, and
// serialize to a compact little-endian binary format (floats as IEEE-754
// bit patterns, so NaN and ±Inf round-trip exactly, which JSON cannot
// do).

// checkpointVersion is the current on-disk format version.
const checkpointVersion = 1

// checkpointMagic opens every encoded checkpoint.
var checkpointMagic = [4]byte{'B', 'S', 'C', 'K'}

// daState is the mutable state of one dual-averaging adapter. The fixed
// hyperparameters (gamma, t0, kappa, target) are reconstructed from the
// Config; mu is mutable because restart() re-centers it.
type daState struct {
	Mu     float64
	Count  float64
	HBar   float64
	LogEps float64
	LogBar float64
}

func (d *dualAveraging) state() daState {
	return daState{Mu: d.mu, Count: d.count, HBar: d.hBar, LogEps: d.logEps, LogBar: d.logBar}
}

func (d *dualAveraging) restoreState(st daState) {
	d.mu = st.Mu
	d.count = st.Count
	d.hBar = st.HBar
	d.logEps = st.LogEps
	d.logBar = st.LogBar
}

// SamplerState is the complete adaptive state of one chain's sampler at an
// iteration boundary — everything a fresh stepper needs to continue the
// chain bit-identically. It is a flat union over the three samplers:
// HMC/NUTS use the Hamiltonian fields, MH uses Scale/AcceptCount/
// AdaptCount, and unused fields stay zero.
type SamplerState struct {
	// RNG is the chain's random stream, captured mid-sequence.
	RNG rng.State
	// Q is the current unconstrained position; Grad its cached gradient
	// (HMC/NUTS); LogP the cached log density.
	Q    []float64
	Grad []float64
	LogP float64
	// Iter is the number of completed iterations (drives the warmup
	// schedule position).
	Iter int
	// LastAccept is the last acceptance statistic.
	LastAccept float64

	// Hamiltonian samplers.
	StepSize    float64
	InvMass     []float64
	DualAvg     daState
	WelfordN    float64
	WelfordMean []float64
	WelfordM2   []float64

	// Metropolis-Hastings.
	Scale       float64
	AcceptCount float64
	AdaptCount  float64
}

// ChainCheckpoint is one chain's slice of a Checkpoint: the sampler state
// plus the chain's retained outputs up to the checkpoint iteration.
type ChainCheckpoint struct {
	State SamplerState
	// Draws is the chain's draw prefix, row-major (draw i starts at
	// i*Dim). N draws of Dim parameters.
	Dim, N int
	Draws  []float64
	// LogDensity, Work, Divergences, AcceptSum mirror the ChainResult
	// accounting at the checkpoint iteration.
	LogDensity   []float64
	Work         []int64
	Divergences  int
	AcceptSum    float64
	InitFallback bool
}

// Checkpoint is a resumable snapshot of a whole multi-chain run at an
// aligned iteration. Build one via the runner (Config.CheckpointEvery +
// Config.CheckpointSink), hand it back through Config.ResumeFrom, or move
// it across processes with Encode/DecodeCheckpoint.
type Checkpoint struct {
	// Version is the format version (checkpointVersion).
	Version int
	// Iteration is the aligned iteration count every chain has completed.
	Iteration int
	// Sampler, NumChains, Iterations and Seed echo the run configuration
	// for resume-time validation. WarmupFrac records the warm-up share the
	// run adapted over, always 0.5 here; a checkpoint that arrives with
	// another one is refused.
	Sampler    SamplerKind
	NumChains  int
	Iterations int
	WarmupFrac float64
	Seed       uint64
	// Chains holds one ChainCheckpoint per chain.
	Chains []ChainCheckpoint
}

// Validate checks that the checkpoint can resume a run under cfg with a
// dim-dimensional target. It returns a descriptive error on any mismatch;
// resuming from an incompatible checkpoint would silently produce garbage
// draws, so RunContext refuses (panics) when this fails.
func (ck *Checkpoint) Validate(cfg Config, dim int) error {
	cfg = cfg.withDefaults()
	switch {
	case ck == nil:
		return fmt.Errorf("mcmc: nil checkpoint")
	case ck.Version != checkpointVersion:
		return fmt.Errorf("mcmc: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	case ck.Sampler != cfg.Sampler:
		return fmt.Errorf("mcmc: checkpoint sampler %v, config wants %v", ck.Sampler, cfg.Sampler)
	case ck.NumChains != cfg.Chains || len(ck.Chains) != cfg.Chains:
		return fmt.Errorf("mcmc: checkpoint has %d chains, config wants %d", len(ck.Chains), cfg.Chains)
	case ck.Iterations != cfg.Iterations:
		return fmt.Errorf("mcmc: checkpoint budget %d, config wants %d", ck.Iterations, cfg.Iterations)
	case ck.WarmupFrac != warmupFrac:
		return fmt.Errorf("mcmc: checkpoint warmup fraction %g, want %g", ck.WarmupFrac, warmupFrac)
	case ck.Seed != cfg.Seed:
		return fmt.Errorf("mcmc: checkpoint seed %d, config wants %d", ck.Seed, cfg.Seed)
	case ck.Iteration > ck.Iterations:
		return fmt.Errorf("mcmc: checkpoint iteration %d beyond budget %d", ck.Iteration, ck.Iterations)
	}
	for c := range ck.Chains {
		cc := &ck.Chains[c]
		if cc.Dim != dim {
			return fmt.Errorf("mcmc: checkpoint chain %d dim %d, target has %d", c, cc.Dim, dim)
		}
		if cc.N != ck.Iteration || len(cc.Draws) != cc.N*cc.Dim ||
			len(cc.LogDensity) != cc.N || len(cc.Work) != cc.N {
			return fmt.Errorf("mcmc: checkpoint chain %d has inconsistent prefix (n=%d draws=%d lp=%d work=%d, want n=%d)",
				c, cc.N, len(cc.Draws), len(cc.LogDensity), len(cc.Work), ck.Iteration)
		}
	}
	return nil
}

// captureCheckpoint snapshots the run at the aligned iteration `done`.
// Called by the runner between segments, so no chain is mid-step.
func captureCheckpoint(cfg Config, steppers []stepper, chains []*ChainResult, acceptSums []float64, done int) *Checkpoint {
	ck := &Checkpoint{
		Version:    checkpointVersion,
		Iteration:  done,
		Sampler:    cfg.Sampler,
		NumChains:  cfg.Chains,
		Iterations: cfg.Iterations,
		WarmupFrac: warmupFrac,
		Seed:       cfg.Seed,
		Chains:     make([]ChainCheckpoint, len(steppers)),
	}
	for c, st := range steppers {
		cc := &ck.Chains[c]
		st.snapshot(&cc.State)
		res := chains[c]
		cc.Dim = res.Samples.Dim()
		cc.N = done
		cc.Draws = make([]float64, done*cc.Dim)
		for i := 0; i < done; i++ {
			res.Samples.Row(i, cc.Draws[i*cc.Dim:(i+1)*cc.Dim])
		}
		cc.LogDensity = append([]float64(nil), res.LogDensity[:done]...)
		cc.Work = append([]int64(nil), res.Work[:done]...)
		cc.Divergences = res.Divergences
		cc.AcceptSum = acceptSums[c]
		cc.InitFallback = res.InitFallback
	}
	return ck
}

// restoreChain rebuilds chain c's stepper state and result prefix from the
// checkpoint. The stepper must be freshly constructed (newStepper) and not
// initialized — restore replaces Init entirely, consuming no randomness.
func restoreChain(cc *ChainCheckpoint, st stepper, res *ChainResult, acceptSum *float64) {
	st.restore(&cc.State)
	for i := 0; i < cc.N; i++ {
		res.Samples.Append(cc.Draws[i*cc.Dim : (i+1)*cc.Dim])
	}
	res.LogDensity = append(res.LogDensity, cc.LogDensity...)
	res.Work = append(res.Work, cc.Work...)
	res.Divergences = cc.Divergences
	res.InitFallback = cc.InitFallback
	*acceptSum = cc.AcceptSum
}

// ---- binary serialization ----

// Encode serializes the checkpoint to its versioned binary form.
func (ck *Checkpoint) Encode() []byte {
	var e cenc
	e.bytes(checkpointMagic[:])
	e.u32(checkpointVersion)
	e.u32(uint32(ck.Sampler))
	e.u64(uint64(ck.Iteration))
	e.u64(uint64(ck.NumChains))
	e.u64(uint64(ck.Iterations))
	e.f64(ck.WarmupFrac)
	e.u64(ck.Seed)
	e.u64(uint64(len(ck.Chains)))
	for i := range ck.Chains {
		cc := &ck.Chains[i]
		s := &cc.State
		e.rng(s.RNG)
		e.f64s(s.Q)
		e.f64s(s.Grad)
		e.f64(s.LogP)
		e.u64(uint64(s.Iter))
		e.f64(s.LastAccept)
		e.f64(s.StepSize)
		e.f64s(s.InvMass)
		e.f64(s.DualAvg.Mu)
		e.f64(s.DualAvg.Count)
		e.f64(s.DualAvg.HBar)
		e.f64(s.DualAvg.LogEps)
		e.f64(s.DualAvg.LogBar)
		e.f64(s.WelfordN)
		e.f64s(s.WelfordMean)
		e.f64s(s.WelfordM2)
		e.f64(s.Scale)
		e.f64(s.AcceptCount)
		e.f64(s.AdaptCount)
		e.u64(uint64(cc.Dim))
		e.u64(uint64(cc.N))
		e.f64s(cc.Draws)
		e.f64s(cc.LogDensity)
		e.i64s(cc.Work)
		e.u64(uint64(cc.Divergences))
		e.f64(cc.AcceptSum)
		e.bool(cc.InitFallback)
	}
	return e.b
}

// WriteTo writes the encoded checkpoint to w.
func (ck *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(ck.Encode())
	return int64(n), err
}

// Fingerprint returns a 64-bit FNV-1a hash over the encoded checkpoint —
// a cheap identity for handoff plumbing (a coordinator can log or compare
// what a worker uploaded without decoding it). Because floats serialize
// as exact IEEE-754 bit patterns, equal fingerprints of same-length
// encodings mean bit-identical sampler state.
func (ck *Checkpoint) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range ck.Encode() {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// DecodeCheckpoint parses a checkpoint previously produced by Encode. It
// validates the magic, version, and internal lengths, returning a
// descriptive error on any corruption.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	d := cdec{b: data}
	var magic [4]byte
	d.bytes(magic[:])
	if magic != checkpointMagic {
		return nil, fmt.Errorf("mcmc: bad checkpoint magic %q", magic[:])
	}
	if v := d.u32(); v != checkpointVersion {
		return nil, fmt.Errorf("mcmc: unsupported checkpoint version %d", v)
	}
	ck := &Checkpoint{Version: checkpointVersion}
	ck.Sampler = SamplerKind(d.u32())
	ck.Iteration = int(d.u64())
	ck.NumChains = int(d.u64())
	ck.Iterations = int(d.u64())
	ck.WarmupFrac = d.f64()
	ck.Seed = d.u64()
	nChains := int(d.u64())
	if d.err == nil && (nChains < 0 || nChains > 1<<16) {
		return nil, fmt.Errorf("mcmc: checkpoint chain count %d out of range", nChains)
	}
	for i := 0; i < nChains && d.err == nil; i++ {
		var cc ChainCheckpoint
		s := &cc.State
		s.RNG = d.rng()
		s.Q = d.f64s()
		s.Grad = d.f64s()
		s.LogP = d.f64()
		s.Iter = int(d.u64())
		s.LastAccept = d.f64()
		s.StepSize = d.f64()
		s.InvMass = d.f64s()
		s.DualAvg.Mu = d.f64()
		s.DualAvg.Count = d.f64()
		s.DualAvg.HBar = d.f64()
		s.DualAvg.LogEps = d.f64()
		s.DualAvg.LogBar = d.f64()
		s.WelfordN = d.f64()
		s.WelfordMean = d.f64s()
		s.WelfordM2 = d.f64s()
		s.Scale = d.f64()
		s.AcceptCount = d.f64()
		s.AdaptCount = d.f64()
		cc.Dim = int(d.u64())
		cc.N = int(d.u64())
		cc.Draws = d.f64s()
		cc.LogDensity = d.f64s()
		cc.Work = d.i64s()
		cc.Divergences = int(d.u64())
		cc.AcceptSum = d.f64()
		cc.InitFallback = d.bool()
		ck.Chains = append(ck.Chains, cc)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("mcmc: %d trailing bytes after checkpoint", len(d.b))
	}
	return ck, nil
}

// cenc is a little-endian append-only encoder. Floats are written as raw
// IEEE-754 bit patterns so every value — NaN payloads and infinities
// included — round-trips exactly.
type cenc struct{ b []byte }

func (e *cenc) bytes(p []byte) { e.b = append(e.b, p...) }
func (e *cenc) u32(v uint32)   { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *cenc) u64(v uint64)   { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *cenc) f64(v float64)  { e.u64(math.Float64bits(v)) }
func (e *cenc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *cenc) f64s(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}
func (e *cenc) i64s(v []int64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(uint64(x))
	}
}
func (e *cenc) rng(st rng.State) {
	for _, w := range st.S {
		e.u64(w)
	}
	e.bool(st.HasSpare)
	e.f64(st.Spare)
}

// cdec is the matching consuming decoder; the first truncation or
// out-of-range length sticks in err and zero values flow from then on.
type cdec struct {
	b   []byte
	err error
}

func (d *cdec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("mcmc: truncated checkpoint")
	}
}

func (d *cdec) bytes(p []byte) {
	if d.err != nil || len(d.b) < len(p) {
		d.fail()
		return
	}
	copy(p, d.b[:len(p)])
	d.b = d.b[len(p):]
}

func (d *cdec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *cdec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *cdec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *cdec) bool() bool {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return false
	}
	v := d.b[0] != 0
	d.b = d.b[1:]
	return v
}

func (d *cdec) length() int {
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)/8) {
		d.err = fmt.Errorf("mcmc: checkpoint length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

func (d *cdec) f64s() []float64 {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *cdec) i64s() []int64 {
	n := d.length()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(d.u64())
	}
	return out
}

func (d *cdec) rng() rng.State {
	var st rng.State
	for i := range st.S {
		st.S[i] = d.u64()
	}
	st.HasSpare = d.bool()
	st.Spare = d.f64()
	return st
}
