package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"bayessuite/internal/mcmc"
)

// Raw-draw transport. The bit-identity contract ("a migrated job's draws
// equal an uninterrupted run's") is meaningless over JSON — float64s
// round-trip through decimal text lossily. EncodeDraws serializes every
// chain's aligned draw prefix as IEEE-754 bit patterns, little-endian,
// versioned with its own magic, so the coordinator (and the acceptance
// tests) compare migrated results against a reference bit for bit.

// drawsMagic opens every encoded draw block.
var drawsMagic = [4]byte{'B', 'S', 'D', 'W'}

const drawsVersion = 1

// EncodeDraws serializes the aligned draw prefix of every chain in res:
// each chain's first res.Iterations draws, all parameters. Quarantined
// chains are included with their retained prefix — two runs are equal
// only if their fault outcomes are too.
func EncodeDraws(res *mcmc.Result) []byte {
	b := append([]byte(nil), drawsMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, drawsVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Chains)))
	for _, c := range res.Chains {
		n, dim := c.Samples.Len(), c.Samples.Dim()
		if n > res.Iterations {
			n = res.Iterations
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		b = binary.LittleEndian.AppendUint32(b, uint32(dim))
		for i := 0; i < n; i++ {
			for d := 0; d < dim; d++ {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Samples.At(i, d)))
			}
		}
	}
	return b
}

// DecodeDraws parses an EncodeDraws block into [chain][draw][param].
func DecodeDraws(data []byte) ([][][]float64, error) {
	if len(data) < 12 || string(data[:4]) != string(drawsMagic[:]) {
		return nil, fmt.Errorf("cluster: bad draws block magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != drawsVersion {
		return nil, fmt.Errorf("cluster: draws block version %d, want %d", v, drawsVersion)
	}
	chains := int(binary.LittleEndian.Uint32(data[8:]))
	off := 12
	// Every count below is checked against the bytes actually present
	// before anything is allocated from it: the block comes off the wire.
	if chains > (len(data)-off)/8 {
		return nil, fmt.Errorf("cluster: draws block claims %d chains in %d bytes", chains, len(data))
	}
	out := make([][][]float64, 0, chains)
	for c := 0; c < chains; c++ {
		if len(data)-off < 8 {
			return nil, fmt.Errorf("cluster: truncated draws block (chain %d header)", c)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		dim := int(binary.LittleEndian.Uint32(data[off+4:]))
		off += 8
		if room := (len(data) - off) / 8; dim == 0 && n != 0 || dim != 0 && n > room/dim {
			return nil, fmt.Errorf("cluster: truncated draws block (chain %d body)", c)
		}
		draws := make([][]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, dim)
			for d := 0; d < dim; d++ {
				row[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
				off += 8
			}
			draws[i] = row
		}
		out = append(out, draws)
	}
	if off != len(data) {
		return nil, fmt.Errorf("cluster: %d trailing bytes after draws block", len(data)-off)
	}
	return out, nil
}

// DrawsEqual compares two encoded draw blocks bit for bit. Raw byte
// equality is exactly draw-level bit identity: the encoding is
// canonical (no padding, floats as bit patterns).
func DrawsEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
