package cluster_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bayessuite/internal/cluster"
	"bayessuite/internal/hw"
)

// FuzzDecodeDraws feeds the BSDW decoder — it reads bytes a worker put on
// the wire and a blob store put on disk — arbitrary blocks. It must
// return an error or a result, never panic and never allocate from a
// count the block does not have the bytes for.
func FuzzDecodeDraws(f *testing.F) {
	good := cluster.EncodeDraws(fakeResult(3, 2, 3))
	wide := cluster.EncodeDraws(fakeResult(5, 3, 5, 7))
	f.Add(good)
	f.Add(wide)
	f.Add([]byte{})
	f.Add(append([]byte("NOPE"), good[4:]...))
	f.Add(good[:len(good)-5])
	f.Add(append(append([]byte{}, good...), 0xFF))
	for cut := 0; cut < 24 && cut < len(wide); cut += 4 {
		f.Add(wide[:cut])
	}
	// Oversized headers: a chain count, a draw count and a dimension far
	// beyond the bytes that follow, and a pair whose product overflows.
	patch := func(off int, v uint32) []byte {
		b := append([]byte{}, good...)
		binary.LittleEndian.PutUint32(b[off:], v)
		return b
	}
	f.Add(patch(8, 0xFFFFFFFF))  // chains
	f.Add(patch(12, 0xFFFFFFFF)) // chain 0: n
	f.Add(patch(16, 0xFFFFFFFF)) // chain 0: dim
	f.Add(patch(16, 0))          // n draws of no parameters
	huge := patch(12, 0x80000000)
	binary.LittleEndian.PutUint32(huge[16:], 0x80000000)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		chains, err := cluster.DecodeDraws(data)
		if err != nil {
			return
		}
		// A block that decodes accounts for every byte it was given.
		size := 12
		for _, draws := range chains {
			size += 8
			for _, row := range draws {
				size += 8 * len(row)
			}
		}
		if size != len(data) {
			t.Fatalf("decoded %d chains covering %d bytes of a %d-byte block", len(chains), size, len(data))
		}
	})
}

// FuzzLeaseRequestJSON feeds the lease route arbitrary bodies, wait_ms
// negative and absurd included. The handler must answer — a grant, an
// empty lease or a 4xx — without panicking and without holding the
// request past the clamp, HeartbeatTimeout.
func FuzzLeaseRequestJSON(f *testing.F) {
	const hbt = 40 * time.Millisecond
	co := cluster.NewCoordinator(cluster.CoordinatorConfig{HeartbeatTimeout: hbt})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = co.Shutdown(ctx)
	})
	handler := co.Handler()

	seed := func(worker string, waitMS int64) {
		body, _ := json.Marshal(cluster.LeaseRequest{
			Worker: worker, Capability: capabilityFor(worker, hw.Skylake), WaitMS: waitMS,
		})
		f.Add(body)
	}
	seed("w1", 0)
	seed("w1", 10)
	seed("w1", -1)
	seed("w1", -1<<63)
	seed("w1", 1<<62) // overflows a Duration when scaled to nanoseconds
	seed("", 5)
	f.Add([]byte(`{"worker":"w1","wait_ms":1e300}`))
	f.Add([]byte(`{"worker":"w1","wait_ms":"soon"}`))
	f.Add([]byte(`{"worker":"w1","capability":{"slots":-3},"wait_ms":20}`))
	f.Add([]byte(`{"worker":`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/cluster/v1/lease", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, req)
		// The slack is for the scheduler, not for the handler.
		if d := time.Since(start); d > hbt+2*time.Second {
			t.Fatalf("lease request held for %v, clamp is %v", d, hbt)
		}
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("lease route answered HTTP %d to %q", rec.Code, body)
		}
	})
}
