package mcmc

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// allocated returns the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeCheckpoint feeds the BSCK decoder — it reads checkpoints a
// worker streamed and a blob store kept on disk — arbitrary blocks. It
// must return a checkpoint or its own error, never panic and never
// allocate out of proportion to the block; a block that decodes accounts
// for every byte it was given.
func FuzzDecodeCheckpoint(f *testing.F) {
	good, cases := corruptCheckpoints()
	f.Add(good)
	for _, c := range cases {
		f.Add(c.data)
	}
	// Length prefixes far beyond the bytes that follow: the chain count
	// (offset 52) and the first chain's Q length (after its 41-byte RNG).
	for _, off := range []int{52, 60 + 41} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(b[off:], 1<<62)
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			ck  *Checkpoint
			err error
		)
		if n := allocated(func() { ck, err = DecodeCheckpoint(data) }); n > 64<<10+16*uint64(len(data)) {
			t.Fatalf("decode allocated %d bytes for a %d-byte block", n, len(data))
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "mcmc: ") {
				t.Fatalf("decode error %q is not the decoder's own", err)
			}
			return
		}
		if n := len(ck.Encode()); n != len(data) {
			t.Fatalf("decoded checkpoint re-encodes to %d bytes from a %d-byte block", n, len(data))
		}
	})
}
