package kernels

import "unsafe"

// Sharding geometry. shardTarget is the number of observations a shard
// aims for; maxShards bounds per-evaluation scratch. Both are fixed
// constants so shard boundaries are a pure function of N, and every
// reduction walks shards in index order: which observations share a
// partial sum, and the order the partial sums are added in, define the
// result's bits, so they depend on nothing else — not on GOMAXPROCS, not
// on how many evaluations run concurrently, not on batch composition.
// An evaluation sweeps its shards on the calling goroutine; parallelism
// comes from the layer above running evaluations of different chains on
// different cores (see Batcher.Fork).
const (
	shardTarget = 1024
	maxShards   = 32

	// accPad rounds each shard's accumulator slot up to a full cache
	// line of float64s so evaluations running side by side on different
	// cores never false-share.
	accPad = 8
)

// shardCount returns the number of shards for n observations — a function
// of n only.
func shardCount(n int) int {
	s := (n + shardTarget - 1) / shardTarget
	if s < 1 {
		s = 1
	}
	if s > maxShards {
		s = maxShards
	}
	return s
}

// shardRange returns the half-open observation range of shard s of ns.
func shardRange(n, ns, s int) (lo, hi int) {
	per := (n + ns - 1) / ns
	lo = s * per
	hi = lo + per
	if hi > n {
		hi = n
	}
	return lo, hi
}

// padWidth rounds a shard accumulator width up to a cache-line multiple.
//
// Accumulator layout invariant (single-eval and batched sweeps alike):
// every writer owns a row of padWidth(...) float64s — a whole number of
// 64-byte cache lines — and the block base is cache-line aligned via
// alignRows. Accumulator blocks of evaluations running concurrently on
// different cores (one per chain evaluator, one per forked batch lane)
// therefore never share a line with each other. Readers (the sequential
// in-order reduction) only run after the sweep completes.
func padWidth(w int) int {
	return (w + accPad - 1) / accPad * accPad
}

// alignRows trims the front of buf so its base address sits on a 64-byte
// cache-line boundary, completing the padWidth invariant above. Callers
// must over-allocate by accPad floats; the returned slice keeps at least
// len(buf)-accPad elements. Alignment changes memory placement only,
// never results.
func alignRows(buf []float64) []float64 {
	if len(buf) == 0 {
		return buf
	}
	// float64 slices are 8-byte aligned, so the misalignment is a whole
	// number of floats in [0, 8).
	skip := (64 - int(uintptr(unsafe.Pointer(&buf[0]))&63)) / 8 % accPad
	return buf[skip:]
}
