package hw

import (
	"math"
	"sort"
)

// Metrics is the simulated counterpart of the paper's performance-counter
// measurements for one (workload, platform, core count) configuration.
type Metrics struct {
	Workload string
	Platform string
	Cores    int

	IPC          float64
	LLCMPKI      float64
	ICacheMPKI   float64
	BranchMPKI   float64
	BandwidthGBs float64

	TimeSeconds  float64
	PowerWatts   float64
	EnergyJoules float64
}

// Characterize runs the full hardware model for profile p on platform
// plat using the given number of cores: the trace-driven LLC simulation,
// the analytical i-cache and branch components, the timing model with the
// slowest-chain schedule, the bandwidth model, and the energy model.
func Characterize(p *Profile, plat Platform, cores int) Metrics {
	if cores < 1 {
		cores = 1
	}
	if cores > plat.Cores {
		cores = plat.Cores
	}
	m := Metrics{
		Workload:   p.Name,
		Platform:   plat.Codename,
		Cores:      cores,
		BranchMPKI: p.BranchMPKI,
		ICacheMPKI: icacheMPKI(p, plat),
	}
	m.LLCMPKI = SimulateLLC(p, plat, cores)

	// Timing: CPI = base + simulated miss penalties.
	cpi := plat.UarchFactor/p.BaseIPC +
		m.LLCMPKI*plat.LLCMissPenalty/1000 +
		m.ICacheMPKI*plat.ICacheMissPenalty/1000 +
		m.BranchMPKI*plat.BranchMissPenalty/1000
	m.IPC = 1 / cpi

	// Schedule the chains' work on the cores (LPT greedy); latency is the
	// most loaded core — the paper's slowest-chain effect.
	maxInstr, totalInstr := scheduleChains(p, cores)
	hz := plat.TurboGHz * 1e9
	m.TimeSeconds = maxInstr * cpi / hz

	// Bandwidth demand; if it exceeds the platform's peak, execution is
	// bandwidth-throttled and time stretches accordingly.
	totalMisses := totalInstr * m.LLCMPKI / 1000
	if m.TimeSeconds > 0 {
		bw := totalMisses * float64(plat.LineBytes) / m.TimeSeconds / 1e9
		if bw > plat.BandwidthGBs {
			m.TimeSeconds *= bw / plat.BandwidthGBs
			bw = plat.BandwidthGBs
		}
		m.BandwidthGBs = bw
	}

	// Energy.
	active := cores
	if n := len(p.ChainWork); n < active {
		active = n
	}
	u := float64(active) / float64(plat.Cores)
	m.PowerWatts = plat.IdleWatts + (plat.TDPWatts-plat.IdleWatts)*math.Pow(u, 0.85)
	m.EnergyJoules = m.PowerWatts * m.TimeSeconds
	return m
}

// icacheMPKI is the analytical instruction-cache model: footprints within
// the L1i only produce a small cold/conflict floor; footprints beyond it
// (tickets, §VII-B) miss in proportion to the overflow fraction.
func icacheMPKI(p *Profile, plat Platform) float64 {
	base := 0.15
	overflow := p.CodeKB - float64(plat.L1IKBytes)
	if overflow <= 0 {
		return base
	}
	return base + 18*overflow/p.CodeKB
}

// scheduleChains assigns chains to cores with longest-processing-time
// greedy scheduling and returns (instructions on the most loaded core,
// total instructions).
func scheduleChains(p *Profile, cores int) (maxInstr, totalInstr float64) {
	ipe := p.InstrPerEval()
	work := append([]int64(nil), p.ChainWork...)
	sort.Slice(work, func(i, j int) bool { return work[i] > work[j] })
	loads := make([]float64, cores)
	for _, w := range work {
		// Place on the least loaded core.
		min := 0
		for c := 1; c < cores; c++ {
			if loads[c] < loads[min] {
				min = c
			}
		}
		loads[min] += float64(w) * ipe
	}
	for _, l := range loads {
		totalInstr += l
		if l > maxInstr {
			maxInstr = l
		}
	}
	return maxInstr, totalInstr
}

// SimulateLLC runs the trace-driven shared-LLC simulation and returns the
// misses per kilo-instruction. Chains beyond the core count run in later
// sequential phases with identical statistics, so one phase with
// min(cores, chains) concurrently active chains is simulated.
func SimulateLLC(p *Profile, plat Platform, cores int) float64 {
	active := len(p.ChainWork)
	if active == 0 {
		active = p.Chains
	}
	if active == 0 {
		active = 1
	}
	if cores < active {
		active = cores
	}
	misses := simulateMissesPerEval(p, plat, active)
	return misses / (p.InstrPerEval() / 1000)
}

// llcKey is everything the trace-driven simulation reads. Two profiles
// that agree on it — the same workload at another iteration count, a
// ScaleIterations or WithChains copy, another seed's identical tape —
// have the same misses per evaluation, bit for bit.
type llcKey struct {
	stream, resident int64
	llcBytes         int64
	ways, line       int
	active           int
}

// llcMemo holds one simulation result per key for the life of the process.
var llcMemo = NewMemo(llcKey.simulate)

// simulateMissesPerEval returns steady-state LLC misses per evaluation per
// chain with the given number of concurrently active chains: a memoised
// pure function of llcKey.
func simulateMissesPerEval(p *Profile, plat Platform, active int) float64 {
	return llcMemo.Get(llcKey{
		stream:   p.StreamBytes(),
		resident: p.ResidentBytes(),
		llcBytes: plat.LLCBytes,
		ways:     plat.LLCWays,
		line:     plat.LineBytes,
		active:   active,
	})
}

// Incidental traffic: code, runtime services, and OS activity touch a
// scattered per-chain region beyond the modeled working set. This is what
// gives real machines their small nonzero LLC miss floor and the gentle
// growth with core count that the paper's Fig. 2 shows even for workloads
// that nominally fit.
const (
	noiseBytes = 2 << 20
	noiseEvery = 96
)

// chainTrace generates one chain's access stream, one evaluation at a
// time, into buf.
type chainTrace struct {
	hotBase, streamBase, noiseBase uint64
	// cursor is the stream line the next evaluation's window starts at.
	cursor uint64
	// untilNoise counts modeled accesses down to the next incidental one.
	untilNoise int
	noiseRng   uint64
	noiseLines uint64
	line       uint64

	buf []uint64
	n   int
}

// emit appends one modeled access, preceded by an incidental one every
// noiseEvery-th time.
func (cs *chainTrace) emit(addr uint64) {
	cs.untilNoise--
	if cs.untilNoise == 0 {
		cs.emitNoise()
	}
	cs.buf[cs.n] = addr
	cs.n++
}

func (cs *chainTrace) emitNoise() {
	x := cs.noiseRng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	cs.noiseRng = x
	cs.buf[cs.n] = cs.noiseBase + (x%cs.noiseLines)*cs.line
	cs.n++
	cs.untilNoise = noiseEvery
}

// eval fills buf with one evaluation: touch the hot region, then sweep a
// window of the stream forward and backward (tape build + reverse sweep),
// wrapping at the end of the stream region. windowLines <= regionLines
// and cursor < regionLines, so one conditional subtraction wraps.
func (cs *chainTrace) eval(hotLines, windowLines, regionLines uint64) []uint64 {
	cs.n = 0
	line := cs.line
	for a, end := cs.hotBase, cs.hotBase+hotLines*line; a < end; a += line {
		cs.emit(a)
	}
	start := cs.cursor
	for l := uint64(0); l < windowLines; l++ {
		pos := start + l
		if pos >= regionLines {
			pos -= regionLines
		}
		cs.emit(cs.streamBase + pos*line)
	}
	for l := windowLines; l > 0; l-- {
		pos := start + l - 1
		if pos >= regionLines {
			pos -= regionLines
		}
		cs.emit(cs.streamBase + pos*line)
	}
	cs.cursor = start + windowLines
	if cs.cursor >= regionLines {
		cs.cursor -= regionLines
	}
	return cs.buf[:cs.n]
}

// simulate interleaves the active chains' access streams through one
// shared LLC and returns steady-state misses per evaluation per chain.
func (k llcKey) simulate() float64 {
	llc := NewCache(k.llcBytes, k.ways, k.line, RandomReplacement)
	line := int64(k.line)

	stream := k.stream
	if stream < line {
		stream = line
	}
	hot := int64(hotBytes)
	if hot > k.resident/2 {
		hot = k.resident / 2
	}
	streamRegion := k.resident - hot
	if stream > streamRegion {
		stream = streamRegion
	}

	hotLines := hot / line
	windowLines := stream / line
	regionLines := streamRegion / line

	// Evals per chain: enough to cycle the resident region ~2.5x, so the
	// second half measures steady state.
	evals := int(2.5*float64(regionLines)/float64(windowLines)) + 4
	if evals > 400 {
		evals = 400
	}

	// Whole evaluations are materialized per chain and interleaved in
	// blocks, which keeps the trace memory bounded.
	perEval := int(hotLines + 2*windowLines)
	chains := make([]chainTrace, k.active)
	for c := range chains {
		base := uint64(c+1) << 40
		chains[c] = chainTrace{
			hotBase:    base,
			streamBase: base + uint64(hot),
			noiseBase:  base + uint64(k.resident),
			untilNoise: noiseEvery,
			noiseRng:   uint64(c)*0x9e3779b97f4a7c15 + 1,
			noiseLines: uint64(noiseBytes / line),
			line:       uint64(line),
			buf:        make([]uint64, perEval+perEval/noiseEvery+1),
		}
	}

	// Chains interleave in blocks to mimic concurrent cores.
	const block = 128
	bufs := make([][]uint64, k.active)
	half := evals / 2
	var measured int
	for e := 0; e < evals; e++ {
		if e == half {
			llc.ResetStats()
		}
		maxLen := 0
		for c := range chains {
			bufs[c] = chains[c].eval(uint64(hotLines), uint64(windowLines), uint64(regionLines))
			if len(bufs[c]) > maxLen {
				maxLen = len(bufs[c])
			}
		}
		for off := 0; off < maxLen; off += block {
			for _, b := range bufs {
				if off >= len(b) {
					continue
				}
				end := off + block
				if end > len(b) {
					end = len(b)
				}
				for _, a := range b[off:end] {
					llc.Access(a)
				}
			}
		}
		if e >= half {
			measured++
		}
	}
	if measured == 0 || k.active == 0 {
		return 0
	}
	return float64(llc.Misses) / float64(measured) / float64(k.active)
}
