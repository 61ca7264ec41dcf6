package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(1<<20, 16, 64, LRUReplacement)
	if c.Access(0) {
		t.Error("first access should miss")
	}
	if !c.Access(0) {
		t.Error("second access should hit")
	}
	if !c.Access(63) {
		t.Error("same-line access should hit")
	}
	if c.Access(64) {
		t.Error("next line should miss")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 2 sets, 64B lines: set = line % 2. Lines 0, 2, 4 map to set 0.
	c := NewCache(4*64, 2, 64, LRUReplacement)
	c.Access(0 * 64)
	c.Access(2 * 64)
	c.Access(0 * 64) // 0 is now MRU
	c.Access(4 * 64) // evicts 2 (LRU)
	if !c.Access(0 * 64) {
		t.Error("0 should still be cached")
	}
	if c.Access(2 * 64) {
		t.Error("2 should have been evicted")
	}
}

// missRate returns c's misses / accesses.
func missRate(c *Cache) float64 { return float64(c.Misses) / float64(c.Hits+c.Misses) }

func TestCacheWorkingSetFits(t *testing.T) {
	// A working set smaller than the cache has ~0 steady-state misses
	// under both policies.
	for _, pol := range []Policy{LRUReplacement, RandomReplacement} {
		c := NewCache(1<<20, 16, 64, pol)
		lines := (1 << 19) / 64
		for pass := 0; pass < 4; pass++ {
			if pass == 1 {
				c.ResetStats()
			}
			for l := 0; l < lines; l++ {
				c.Access(uint64(l * 64))
			}
		}
		if missRate(c) > 0.001 {
			t.Errorf("policy %v: fitting working set missed %.3f", pol, missRate(c))
		}
	}
}

func TestCacheLoopPathologyLRUvsRandom(t *testing.T) {
	// Cyclic working set 1.5x the cache: LRU misses ~100%, random misses
	// roughly 1 - C/W. This difference is why the LLC model uses random.
	size := int64(1 << 20)
	lines := int(size) / 64 * 3 / 2
	run := func(pol Policy) float64 {
		c := NewCache(size, 16, 64, pol)
		for pass := 0; pass < 8; pass++ {
			if pass == 4 {
				c.ResetStats()
			}
			for l := 0; l < lines; l++ {
				c.Access(uint64(l * 64))
			}
		}
		return missRate(c)
	}
	lru := run(LRUReplacement)
	random := run(RandomReplacement)
	if lru < 0.95 {
		t.Errorf("LRU loop miss rate %.3f, expected pathological ~1", lru)
	}
	if random > 0.65 || random < 0.15 {
		t.Errorf("random loop miss rate %.3f, expected moderate (~1/3)", random)
	}
}

func TestCacheMissRateMonotoneInWorkingSet(t *testing.T) {
	// Property: bigger cyclic working sets never miss less.
	size := int64(1 << 19)
	rate := func(lines int) float64 {
		c := NewCache(size, 16, 64, RandomReplacement)
		for pass := 0; pass < 6; pass++ {
			if pass == 3 {
				c.ResetStats()
			}
			for l := 0; l < lines; l++ {
				c.Access(uint64(l * 64))
			}
		}
		return missRate(c)
	}
	prev := -1.0
	for _, mult := range []float64{0.5, 1, 1.5, 2.5, 4} {
		lines := int(float64(size) / 64 * mult)
		r := rate(lines)
		if r < prev-0.03 {
			t.Errorf("miss rate decreased with working set: %.3f after %.3f (mult %g)", r, prev, mult)
		}
		prev = r
	}
}

func TestPlatformsTableII(t *testing.T) {
	if Skylake.TurboGHz != 4.2 || Skylake.Cores != 4 || Skylake.LLCBytes != 8<<20 ||
		Skylake.TDPWatts != 91 || Skylake.BandwidthGBs != 34.1 {
		t.Errorf("Skylake row diverges from Table II: %+v", Skylake)
	}
	if Broadwell.TurboGHz != 3.6 || Broadwell.Cores != 16 || Broadwell.LLCBytes != 40<<20 ||
		Broadwell.TDPWatts != 145 || Broadwell.BandwidthGBs != 78.8 {
		t.Errorf("Broadwell row diverges from Table II: %+v", Broadwell)
	}
	if p, ok := ByName("Skylake"); !ok || p.Processor != "i7-6700K" {
		t.Error("ByName(Skylake) wrong")
	}
	if _, ok := ByName("Zen"); ok {
		t.Error("ByName should reject unknown platforms")
	}
}

// syntheticProfile builds a profile with a given stream footprint.
func syntheticProfile(streamKB int, chains int) *Profile {
	// TapeEdges*12 dominates StreamBytes; zero modeled data.
	edges := streamKB * 1024 / 12
	p := &Profile{
		Name:       "synthetic",
		TapeEdges:  edges,
		TapeNodes:  edges / 8,
		BaseIPC:    2.0,
		BranchMPKI: 0.5,
		CodeKB:     20,
		Iterations: 1000,
		Chains:     chains,
	}
	for c := 0; c < chains; c++ {
		p.ChainWork = append(p.ChainWork, 30_000)
	}
	return p
}

func TestSimulateLLCCapacityStory(t *testing.T) {
	small := syntheticProfile(100, 4)  // resident ~1.2 MB
	large := syntheticProfile(3000, 4) // resident ~12.5 MB

	smallMPKI := SimulateLLC(small, Skylake, 4)
	largeMPKI1 := SimulateLLC(large, Skylake, 1)
	largeMPKI4 := SimulateLLC(large, Skylake, 4)
	largeBdw := SimulateLLC(large, Broadwell, 4)

	if smallMPKI > 1 {
		t.Errorf("small working set MPKI %.2f, want < 1", smallMPKI)
	}
	if largeMPKI4 <= largeMPKI1 {
		t.Errorf("4-core MPKI %.2f should exceed 1-core %.2f (shared-LLC contention)",
			largeMPKI4, largeMPKI1)
	}
	if largeMPKI4 < 2 {
		t.Errorf("oversized working set MPKI %.2f, want large", largeMPKI4)
	}
	if largeBdw >= largeMPKI4 {
		t.Errorf("Broadwell's 40MB LLC should cut misses: %.2f vs %.2f", largeBdw, largeMPKI4)
	}
}

func TestCharacterizeTimingMonotonicity(t *testing.T) {
	p := syntheticProfile(100, 4)
	m1 := Characterize(p, Skylake, 1)
	m2 := Characterize(p, Skylake, 2)
	m4 := Characterize(p, Skylake, 4)
	if !(m1.TimeSeconds > m2.TimeSeconds && m2.TimeSeconds > m4.TimeSeconds) {
		t.Errorf("time should shrink with cores: %.3f, %.3f, %.3f",
			m1.TimeSeconds, m2.TimeSeconds, m4.TimeSeconds)
	}
	if sp := m1.TimeSeconds / m4.TimeSeconds; sp > 4.0001 {
		t.Errorf("speedup %.2f exceeds core count", sp)
	}
	if m1.IPC <= 0 || m1.IPC > p.BaseIPC {
		t.Errorf("IPC %.2f outside (0, base]", m1.IPC)
	}
}

func TestCharacterizeChainImbalanceLimitsSpeedup(t *testing.T) {
	p := syntheticProfile(100, 4)
	p.ChainWork = []int64{60_000, 30_000, 30_000, 30_000}
	m1 := Characterize(p, Skylake, 1)
	m4 := Characterize(p, Skylake, 4)
	sp := m1.TimeSeconds / m4.TimeSeconds
	// Total 150k, slowest 60k: ideal speedup is 2.5, not 4.
	if sp > 2.6 {
		t.Errorf("speedup %.2f ignores the slowest chain (want <= 2.5)", sp)
	}
	if sp < 2.2 {
		t.Errorf("speedup %.2f too low for this imbalance", sp)
	}
}

func TestCharacterizeEnergy(t *testing.T) {
	p := syntheticProfile(100, 4)
	m := Characterize(p, Skylake, 4)
	if m.PowerWatts < Skylake.IdleWatts || m.PowerWatts > Skylake.TDPWatts {
		t.Errorf("power %.1f outside [idle, TDP]", m.PowerWatts)
	}
	if math.Abs(m.EnergyJoules-m.PowerWatts*m.TimeSeconds) > 1e-9 {
		t.Error("energy != power * time")
	}
	// Fewer chains on the big server draw less power.
	m1 := Characterize(p.WithChains(1), Broadwell, 1)
	m4 := Characterize(p, Broadwell, 4)
	if m1.PowerWatts >= m4.PowerWatts {
		t.Errorf("1-chain power %.1f >= 4-chain power %.1f", m1.PowerWatts, m4.PowerWatts)
	}
}

func TestICacheModel(t *testing.T) {
	small := &Profile{CodeKB: 20}
	big := &Profile{CodeKB: 46}
	if icacheMPKI(small, Skylake) >= icacheMPKI(big, Skylake) {
		t.Error("larger code footprint should miss more")
	}
	if icacheMPKI(small, Skylake) > 0.5 {
		t.Error("fitting footprint should be near the floor")
	}
}

func TestProfileScaleIterations(t *testing.T) {
	p := syntheticProfile(100, 4)
	half := p.ScaleIterations(500)
	if half.Iterations != 500 {
		t.Errorf("iterations %d", half.Iterations)
	}
	for c := range half.ChainWork {
		if half.ChainWork[c] != p.ChainWork[c]/2 {
			t.Errorf("chain %d work %d, want %d", c, half.ChainWork[c], p.ChainWork[c]/2)
		}
	}
	// Original untouched.
	if p.ChainWork[0] != 30_000 {
		t.Error("ScaleIterations mutated the original")
	}
}

func TestProfileWithChains(t *testing.T) {
	p := syntheticProfile(100, 4)
	two := p.WithChains(2)
	if len(two.ChainWork) != 2 || two.Chains != 2 {
		t.Errorf("WithChains(2): %+v", two)
	}
	if len(p.ChainWork) != 4 {
		t.Error("WithChains mutated the original")
	}
	if len(p.WithChains(9).ChainWork) != 4 {
		t.Error("WithChains should clamp to available chains")
	}
}

func TestBandwidthCap(t *testing.T) {
	// A profile with an enormous miss stream must not exceed the
	// platform's peak bandwidth; time stretches instead.
	p := syntheticProfile(8000, 4)
	m := Characterize(p, Skylake, 4)
	if m.BandwidthGBs > Skylake.BandwidthGBs+1e-9 {
		t.Errorf("bandwidth %.1f exceeds platform peak %.1f", m.BandwidthGBs, Skylake.BandwidthGBs)
	}
}

func TestCacheGeometryProperty(t *testing.T) {
	// Accessing the same address twice always hits the second time,
	// whatever the geometry.
	err := quick.Check(func(addr uint64, waysRaw, lineRaw uint8) bool {
		ways := int(waysRaw)%8 + 1
		line := 64
		c := NewCache(int64(ways*line*16), ways, line, RandomReplacement)
		c.Access(addr)
		return c.Access(addr)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}
