package cluster_test

import (
	"bytes"
	"testing"

	"bayessuite/internal/cluster"
	"bayessuite/internal/mcmc"
)

// fakeResult builds a deterministic mcmc.Result with the given chain
// lengths (iterations counts the aligned prefix).
func fakeResult(iterations, dim int, lens ...int) *mcmc.Result {
	res := &mcmc.Result{Iterations: iterations}
	for c, n := range lens {
		s := mcmc.NewSamples(dim, n)
		q := make([]float64, dim)
		for i := 0; i < n; i++ {
			for d := range q {
				q[d] = float64(c)*1000 + float64(i) + float64(d)/7
			}
			s.Append(q)
		}
		res.Chains = append(res.Chains, &mcmc.ChainResult{Samples: s})
	}
	return res
}

// TestDrawsCheckpointRoundTrip encodes a synthetic result and decodes it
// back, checking the prefix-alignment rule: chains longer than
// res.Iterations are truncated to the aligned prefix.
func TestDrawsCheckpointRoundTrip(t *testing.T) {
	res := fakeResult(5, 3, 5, 7) // chain 1 has 2 extra draws past the prefix
	blob := cluster.EncodeDraws(res)
	got, err := cluster.DecodeDraws(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("%d chains, want 2", len(got))
	}
	for c, draws := range got {
		if len(draws) != 5 {
			t.Fatalf("chain %d: %d draws, want 5 (aligned prefix)", c, len(draws))
		}
		for i, row := range draws {
			for d, v := range row {
				want := float64(c)*1000 + float64(i) + float64(d)/7
				if v != want {
					t.Fatalf("chain %d draw %d param %d = %v, want %v", c, i, d, v, want)
				}
			}
		}
	}
	if !bytes.Equal(blob, cluster.EncodeDraws(res)) {
		t.Fatal("re-encoding the same result is not byte-identical")
	}
	// A chain shorter than the prefix encodes fewer draws — distinct.
	other := cluster.EncodeDraws(fakeResult(5, 3, 5, 4))
	if bytes.Equal(blob, other) {
		t.Fatal("distinct results compare equal")
	}
}

// TestDrawsCheckpointDecodeRejectsCorruption covers the validation
// paths: bad magic, wrong version, truncation, and trailing bytes.
func TestDrawsCheckpointDecodeRejectsCorruption(t *testing.T) {
	blob := cluster.EncodeDraws(fakeResult(3, 2, 3))
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), blob[4:]...),
		"version":   append(append(append([]byte{}, blob[:4]...), 9, 0, 0, 0), blob[8:]...),
		"truncated": blob[:len(blob)-5],
		"trailing":  append(append([]byte{}, blob...), 0xFF),
	}
	for name, data := range cases {
		if _, err := cluster.DecodeDraws(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}
