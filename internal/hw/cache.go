package hw

// Cache is a set-associative cache simulator with selectable replacement
// policy. The LLC model uses random replacement: modern Intel LLCs use
// adaptive (quasi-random / RRIP-like) policies rather than true LRU, and
// random replacement both approximates their behavior on streaming
// working sets and avoids the LRU loop pathology (a cyclic working set
// slightly larger than the cache missing 100% under LRU, which no real
// LLC exhibits). LRU remains available for the smaller structures and for
// the cache-model ablation bench.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	// setMask is sets-1 when the set count is a power of two, else 0
	// (one set also gives 0, and the modulo path then yields set 0).
	setMask uint64

	// tags[set*ways+way]; 0 means empty (addresses are offset so that a
	// real tag is never 0).
	tags []uint64
	// lru[set*ways+way] is the last-use stamp; nil unless the policy is
	// LRU — random replacement never reads a stamp.
	lru   []uint64
	stamp uint64

	policy Policy
	rngSt  uint64

	Hits, Misses uint64
}

// Policy selects the replacement policy.
type Policy int

const (
	// RandomReplacement approximates adaptive LLC policies.
	RandomReplacement Policy = iota
	// LRUReplacement is classic least-recently-used.
	LRUReplacement
)

// NewCache builds a cache of the given total size, associativity and line
// size. The set count is sizeBytes/lineBytes/ways: when it is a power of
// two (both Table II LLCs: 8192 and 32768 sets) the set index is a mask
// of the line number, otherwise a modulo. The two agree wherever both
// apply, so hit and miss counts do not depend on which path a geometry
// takes; only the speed does. The line size must be a power of two.
func NewCache(sizeBytes int64, ways, lineBytes int, policy Policy) *Cache {
	if ways < 1 || lineBytes < 1 || sizeBytes < int64(ways*lineBytes) {
		panic("hw: bad cache geometry")
	}
	lines := sizeBytes / int64(lineBytes)
	sets := int(lines) / ways
	if sets < 1 {
		sets = 1
	}
	lb := uint(0)
	for (1 << lb) < lineBytes {
		lb++
	}
	c := &Cache{
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		tags:     make([]uint64, sets*ways),
		policy:   policy,
		rngSt:    0x9e3779b97f4a7c15,
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	if policy == LRUReplacement {
		c.lru = make([]uint64, sets*ways)
	}
	return c
}

// ResetStats clears hit/miss counters but keeps contents (used to discard
// cold-start warmup).
func (c *Cache) ResetStats() {
	c.Hits = 0
	c.Misses = 0
}

func (c *Cache) nextRand() uint64 {
	x := c.rngSt
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rngSt = x
	return x
}

// Access touches the byte address and returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	line := (addr >> c.lineBits) + 1 // +1 so tag 0 means empty
	var set uint64
	if c.setMask != 0 {
		set = line & c.setMask
	} else {
		set = line % uint64(c.sets)
	}
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	if c.policy == LRUReplacement {
		return c.accessLRU(tags, c.lru[base:base+c.ways], line)
	}

	for _, t := range tags {
		if t == line {
			c.Hits++
			return true
		}
	}
	c.Misses++
	victim := firstEmpty(tags)
	if victim < 0 {
		victim = int(c.nextRand() % uint64(c.ways))
	}
	tags[victim] = line
	return false
}

// firstEmpty returns the lowest empty way of a set, or -1 when the set is
// full. Ways fill lowest-first and are never emptied, so a set is full
// exactly when its last way is occupied: the common case after warm-up
// costs one comparison.
func firstEmpty(tags []uint64) int {
	if tags[len(tags)-1] != 0 {
		return -1
	}
	for w, t := range tags {
		if t == 0 {
			return w
		}
	}
	return -1
}

// accessLRU is Access for one set under LRU: every touch stamps its way,
// and a full set evicts the oldest stamp (the lowest way among equals).
func (c *Cache) accessLRU(tags, lru []uint64, line uint64) bool {
	c.stamp++
	for w, t := range tags {
		if t == line {
			c.Hits++
			lru[w] = c.stamp
			return true
		}
	}
	c.Misses++
	victim := firstEmpty(tags)
	if victim < 0 {
		victim = 0
		for w := 1; w < len(lru); w++ {
			if lru[w] < lru[victim] {
				victim = w
			}
		}
	}
	tags[victim] = line
	lru[victim] = c.stamp
	return false
}
