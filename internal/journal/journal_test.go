package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// openAppend opens the journal at path, appends each payload, and
// closes it — the common arrange step.
func openAppend(t testing.TB, path string, payloads ...[]byte) {
	t.Helper()
	j, _, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	for i, p := range payloads {
		if err := j.Append(p); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func mustRecs(t *testing.T, path string) [][]byte {
	t.Helper()
	j, recs, err := Open(path)
	if err != nil {
		t.Fatalf("reopen %s: %v", path, err)
	}
	j.Close()
	return recs
}

func TestJournalAppendReopenRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	want := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-longer-payload"), {0, 1, 2, 0xff}}
	openAppend(t, path, want...)

	got := mustRecs(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestJournalEmptyAndAbsent(t *testing.T) {
	dir := t.TempDir()

	// Absent file: an empty journal, not an error.
	absent := filepath.Join(dir, "absent.log")
	if recs, size, err := Scan(absent); err != nil || len(recs) != 0 || size != 0 {
		t.Fatalf("Scan(absent) = %d recs, size %d, err %v; want empty", len(recs), size, err)
	}
	j, recs, err := Open(absent)
	if err != nil || len(recs) != 0 {
		t.Fatalf("Open(absent) = %d recs, err %v; want empty journal", len(recs), err)
	}
	j.Close()

	// Zero-byte file (created but never stamped): also an empty journal.
	empty := filepath.Join(dir, "empty.log")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err = Open(empty)
	if err != nil || len(recs) != 0 {
		t.Fatalf("Open(zero-byte) = %d recs, err %v; want empty journal", len(recs), err)
	}
	if err := j.Append([]byte("first")); err != nil {
		t.Fatalf("Append after empty open: %v", err)
	}
	j.Close()
	if got := mustRecs(t, empty); len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("after stamping empty file: %q", got)
	}
}

// tornTails are the shapes a crash mid-append leaves at the end of an
// intact log.
var tornTails = []struct {
	name string
	tear func(data []byte) []byte
}{
	{"cut-mid-record-header", func(data []byte) []byte {
		return append(data, 0x03, 0x00, 0x00) // 3 of the 8 header bytes
	}},
	{"cut-mid-payload", func(data []byte) []byte {
		var rh [8]byte
		binary.LittleEndian.PutUint32(rh[:], 100) // claims 100 bytes...
		return append(append(data, rh[:]...), []byte("only-a-few")...)
	}},
	{"corrupt-final-crc", func(data []byte) []byte {
		payload := []byte("torn-write")
		var rh [8]byte
		binary.LittleEndian.PutUint32(rh[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rh[4:], 0xdeadbeef) // wrong CRC
		return append(append(data, rh[:]...), payload...)
	}},
}

// logBytes returns the bytes of a journal holding payloads.
func logBytes(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "j.log")
	openAppend(t, path, payloads...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// corruptMidLog flips the first payload byte of a log whose first record
// has records after it.
func corruptMidLog(data []byte) []byte {
	data[headerSize+8] ^= 0xff
	return data
}

// TestJournalTornTail covers every shape of crash-mid-append: the tail
// is silently truncated, the earlier records survive, and the journal
// stays appendable at the record boundary.
func TestJournalTornTail(t *testing.T) {
	intact := [][]byte{[]byte("one"), []byte("two")}
	for _, tc := range tornTails {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			if err := os.WriteFile(path, tc.tear(logBytes(t, intact...)), 0o644); err != nil {
				t.Fatal(err)
			}

			j, recs, err := Open(path)
			if err != nil {
				t.Fatalf("Open with torn tail: %v", err)
			}
			if len(recs) != len(intact) {
				t.Fatalf("replayed %d records, want %d intact", len(recs), len(intact))
			}
			// The truncation must leave a clean record boundary: appends
			// land and reopen cleanly.
			if err := j.Append([]byte("three")); err != nil {
				t.Fatalf("Append after truncation: %v", err)
			}
			j.Close()
			got := mustRecs(t, path)
			if len(got) != 3 || string(got[2]) != "three" {
				t.Fatalf("after re-append: %q", got)
			}
		})
	}
}

// TestJournalMidLogCorruption flips a payload byte of a record that has
// records after it — that is NOT a torn tail, and replay must refuse
// with a typed *CorruptError instead of resurrecting untrustworthy
// state.
func TestJournalMidLogCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	// Flip a byte inside the FIRST record's payload (offset 8 header + 8
	// record header puts us at its first payload byte).
	data := corruptMidLog(logBytes(t, []byte("first-record"), []byte("second-record"), []byte("third-record")))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err := Open(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open(mid-log corruption) = %v, want *CorruptError", err)
	}
	if ce.Offset != headerSize || ce.Index != 0 {
		t.Errorf("CorruptError at offset %d record %d, want offset %d record 0", ce.Offset, ce.Index, headerSize)
	}
}

func TestJournalBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	if err := os.WriteFile(path, []byte("NOTAJOURNALFILE"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, _, err := Open(path); !errors.As(err, &ce) {
		t.Fatalf("Open(bad magic) = %v, want *CorruptError", err)
	}
}

// TestJournalRewrite compacts a log down to a subset and verifies the
// rotation is complete (old records gone, new ones appendable) and that
// no rotation temp files linger.
func TestJournalRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	compacted := [][]byte{[]byte("survivor-a"), []byte("survivor-b")}
	if err := j.Rewrite(compacted); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// The journal stays open for append on the new file.
	if err := j.Append([]byte("post-rotate")); err != nil {
		t.Fatalf("Append after Rewrite: %v", err)
	}
	j.Close()

	got := mustRecs(t, path)
	want := []string{"survivor-a", "survivor-b", "post-rotate"}
	if len(got) != len(want) {
		t.Fatalf("after rotation: %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if string(got[i]) != w {
			t.Errorf("record %d = %q, want %q", i, got[i], w)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("rotation left %d files in the directory, want just the journal", len(entries))
	}
}

func TestJournalAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("late")); err == nil {
		t.Fatal("Append after Close succeeded, want error")
	}
	if err := j.Rewrite(nil); err == nil {
		t.Fatal("Rewrite after Close succeeded, want error")
	}
}

// TestJournalAppendFailureSticky: once a write fails, later appends
// return that error and write nothing, even when the file would take them
// again — a record after a torn one would make replay refuse the log as
// mid-log corruption.
func TestJournalAppendFailureSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	// A read-only handle on the same file fails the next write; the
	// writable handle then goes back.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	rw := j.f
	j.f = ro
	first := j.Append([]byte("failed"))
	j.f = rw
	if first == nil {
		t.Fatal("Append on a read-only handle succeeded")
	}
	for i := 0; i < 2; i++ {
		if err := j.Append([]byte("after")); err != first {
			t.Fatalf("Append %d after a failed one = %v, want the first failure %v", i, err, first)
		}
	}
	recs, _, err := Scan(path)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(recs) != 1 || string(recs[0]) != "before" {
		t.Fatalf("log holds %q, want only the record before the failure", recs)
	}
}

// TestJournalReplayDeterminism scans the same bytes twice and from a
// byte-for-byte copy: identical results, because recovery correctness
// depends on replay being a pure function of the file contents.
func TestJournalReplayDeterminism(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.log")
	openAppend(t, path, []byte("a"), []byte("bb"), []byte("ccc"))

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clone := filepath.Join(dir, "clone.log")
	if err := os.WriteFile(clone, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r1, s1, err1 := Scan(path)
	r2, s2, err2 := Scan(clone)
	if err1 != nil || err2 != nil {
		t.Fatalf("Scan errs: %v, %v", err1, err2)
	}
	if s1 != s2 || len(r1) != len(r2) {
		t.Fatalf("scans disagree: %d/%d records, %d/%d valid bytes", len(r1), len(r2), s1, s2)
	}
	for i := range r1 {
		if !bytes.Equal(r1[i], r2[i]) {
			t.Errorf("record %d differs between identical files", i)
		}
	}
}

func TestBlobStoreRoundtrip(t *testing.T) {
	s, err := NewBlobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("checkpoint payload bytes")
	addr, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if addr != Addr(data) {
		t.Fatalf("Put returned %s, want %s", addr, Addr(data))
	}
	// Idempotent re-put.
	if addr2, err := s.Put(data); err != nil || addr2 != addr {
		t.Fatalf("re-Put = %s, %v; want same address", addr2, err)
	}
	got, err := s.Get(addr)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}

	other, err := s.Put([]byte("second blob"))
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := s.Addrs()
	if err != nil || len(addrs) != 2 {
		t.Fatalf("Addrs = %v, %v; want 2 addresses", addrs, err)
	}

	if err := s.Delete(other); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete(other); err != nil {
		t.Fatalf("Delete(absent) should be a no-op: %v", err)
	}
	if _, err := s.Get(other); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
	addrs, _ = s.Addrs()
	if len(addrs) != 1 || addrs[0] != addr {
		t.Fatalf("after delete Addrs = %v, want [%s]", addrs, addr)
	}
}

// TestBlobStoreCorruptionDetected rewrites a stored blob's file with
// different bytes: Get must refuse because the content no longer hashes
// to its address.
func TestBlobStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := NewBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Put([]byte("pristine"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, addr[:2], addr), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(addr)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Get(tampered blob) = %v, want *CorruptError", err)
	}
}
