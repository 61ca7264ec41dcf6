package hw

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// refCache is the straightforward simulator the optimised Cache replaced:
// modulo set index on every geometry, a stamp store on every touch under
// both policies, separate hit and empty-way scans. The property test
// below holds Cache to it access by access.
type refCache struct {
	sets, ways int
	lineBits   uint
	tags, lru  []uint64
	stamp      uint64
	policy     Policy
	rngSt      uint64
}

func newRefCache(sets, ways, lineBytes int, policy Policy) *refCache {
	lb := uint(0)
	for (1 << lb) < lineBytes {
		lb++
	}
	return &refCache{
		sets: sets, ways: ways, lineBits: lb,
		tags: make([]uint64, sets*ways), lru: make([]uint64, sets*ways),
		policy: policy, rngSt: 0x9e3779b97f4a7c15,
	}
}

func (c *refCache) access(addr uint64) bool {
	line := (addr >> c.lineBits) + 1
	base := int(line%uint64(c.sets)) * c.ways
	c.stamp++
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.lru[base+w] = c.stamp
			return true
		}
	}
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			c.tags[base+w] = line
			c.lru[base+w] = c.stamp
			return false
		}
	}
	var victim int
	if c.policy == RandomReplacement {
		x := c.rngSt
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.rngSt = x
		victim = int(x % uint64(c.ways))
	} else {
		oldest := c.lru[base]
		for w := 1; w < c.ways; w++ {
			if c.lru[base+w] < oldest {
				oldest = c.lru[base+w]
				victim = w
			}
		}
	}
	c.tags[base+victim] = line
	c.lru[base+victim] = c.stamp
	return false
}

func TestAccessMatchesReference(t *testing.T) {
	// Set counts on both index paths: powers of two take the mask, the
	// rest (and the single set) the modulo.
	for _, sets := range []int{1, 2, 3, 8, 12, 64, 100} {
		for _, pol := range []Policy{RandomReplacement, LRUReplacement} {
			sets, pol := sets, pol
			check := func(seed uint64, waysRaw, spanRaw uint8) bool {
				ways := int(waysRaw)%6 + 1
				c := NewCache(int64(sets*ways*64), ways, 64, pol)
				if c.sets != sets {
					t.Fatalf("geometry: %d sets, want %d", c.sets, sets)
				}
				ref := newRefCache(sets, ways, 64, pol)
				// Addresses drawn from a few times the cache's lines, so
				// hits, fills and evictions all occur.
				span := uint64(sets*ways) * (uint64(spanRaw)%4 + 1) * 64
				x := seed | 1
				for i := 0; i < 4000; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					addr := x % span
					if c.Access(addr) != ref.access(addr) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
				t.Errorf("sets=%d policy=%v: %v", sets, pol, err)
			}
		}
	}
}

// clearLLCMemo empties the simulator's memo table for the test and again
// after it.
func clearLLCMemo(t *testing.T) {
	t.Helper()
	ResetLLCMemo()
	t.Cleanup(ResetLLCMemo)
}

func (t *Memo[K, V]) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

func TestLLCMemoHitSameBits(t *testing.T) {
	clearLLCMemo(t)
	p := syntheticProfile(100, 4)
	cold := SimulateLLC(p, Skylake, 4)
	if n := llcMemo.size(); n != 1 {
		t.Fatalf("memo holds %d entries after one simulation, want 1", n)
	}
	// Another iteration count and another chain count at the same active
	// count read the same simulator inputs: one entry serves them all.
	for _, q := range []*Profile{p, p.ScaleIterations(250), syntheticProfile(100, 8)} {
		if hit := SimulateLLC(q, Skylake, 4); math.Float64bits(hit) != math.Float64bits(cold) {
			t.Errorf("memo hit %x, cold %x", math.Float64bits(hit), math.Float64bits(cold))
		}
	}
	if n := llcMemo.size(); n != 1 {
		t.Errorf("memo holds %d entries for one key", n)
	}
	// Every input the simulator reads separates entries.
	SimulateLLC(p, Skylake, 2)
	SimulateLLC(p, Broadwell, 4)
	SimulateLLC(syntheticProfile(101, 4), Skylake, 4)
	if n := llcMemo.size(); n != 4 {
		t.Errorf("memo holds %d entries for four keys", n)
	}
}

func TestMemoCap(t *testing.T) {
	var calls atomic.Int64
	m := NewMemo(func(k int) int { calls.Add(1); return 2 * k })
	for k := 0; k < memoCap+100; k++ {
		if got := m.Get(k); got != 2*k {
			t.Fatalf("Get(%d) = %d", k, got)
		}
		if n := m.size(); n > memoCap {
			t.Fatalf("table holds %d entries after %d keys, cap is %d", n, k+1, memoCap)
		}
	}
	if n := m.size(); n != memoCap {
		t.Errorf("table holds %d entries, want it full at %d", n, memoCap)
	}
	// The newest key is still there and a hit neither recomputes nor grows
	// the table.
	before := calls.Load()
	if got := m.Get(memoCap + 99); got != 2*(memoCap+99) || calls.Load() != before {
		t.Errorf("hit at the cap: got %d, %d recomputations", got, calls.Load()-before)
	}
	if n := m.size(); n != memoCap {
		t.Errorf("a hit changed the table size to %d", n)
	}
}

func TestMemoConcurrentOneKey(t *testing.T) {
	clearLLCMemo(t)
	var calls atomic.Int64
	counted := NewMemo(func(k llcKey) float64 { calls.Add(1); return k.simulate() })
	p := syntheticProfile(300, 4)
	k := llcKey{
		stream: p.StreamBytes(), resident: p.ResidentBytes(),
		llcBytes: Skylake.LLCBytes, ways: Skylake.LLCWays, line: Skylake.LineBytes,
		active: 4,
	}
	const callers = 8
	var got, viaSim [callers]float64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = counted.Get(k)
			viaSim[i] = SimulateLLC(p, Skylake, 4)
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("%d simulations for %d concurrent callers of one key, want 1", n, callers)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(got[0]) || got[i] <= 0 {
			t.Errorf("caller %d got %v, caller 0 got %v", i, got[i], got[0])
		}
		if math.Float64bits(viaSim[i]) != math.Float64bits(viaSim[0]) || viaSim[i] <= 0 {
			t.Errorf("caller %d: SimulateLLC %v, caller 0 got %v", i, viaSim[i], viaSim[0])
		}
	}
	if n := llcMemo.size(); n != 1 {
		t.Errorf("simulator memo holds %d entries for one key", n)
	}
}

var benchSink float64

// BenchmarkSimulateLLC times the simulator core (cold: llcKey.simulate,
// what the first caller of a key pays) and a memo hit (what every later
// caller pays) at the suite's two extremes on 4-core Skylake: tickets at
// full scale, the largest stream, and racial at 0.25, the smallest, which
// runs the 400-evaluation cap. The stream sizes are the golden file's.
func BenchmarkSimulateLLC(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stream int
	}{{"tickets@1", 2888960}, {"racial@0.25", 7256}} {
		p := &Profile{Name: bc.name, ModeledDataBytes: bc.stream, Chains: 4}
		k := llcKey{
			stream: p.StreamBytes(), resident: p.ResidentBytes(),
			llcBytes: Skylake.LLCBytes, ways: Skylake.LLCWays, line: Skylake.LineBytes,
			active: 4,
		}
		b.Run(bc.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = k.simulate()
			}
		})
		b.Run(bc.name+"/hit", func(b *testing.B) {
			SimulateLLC(p, Skylake, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = SimulateLLC(p, Skylake, 4)
			}
		})
	}
}
