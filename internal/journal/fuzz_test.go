package journal

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
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

// FuzzJournalOpen replays arbitrary bytes as a journal file. Open must
// return the valid records or a *CorruptError — never panic, never
// allocate out of proportion to the file — and a successful open must
// leave the file at a record boundary holding exactly those records.
func FuzzJournalOpen(f *testing.F) {
	intact := logBytes(f, []byte("one"), []byte("two"))
	f.Add(intact)
	f.Add([]byte{})
	f.Add(intact[:headerSize])
	for _, tc := range tornTails {
		f.Add(tc.tear(append([]byte(nil), intact...)))
	}
	f.Add(corruptMidLog(logBytes(f, []byte("first-record"), []byte("second-record"), []byte("third-record"))))
	f.Add([]byte("NOTAJOURNALFILE"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var (
			j    *Journal
			recs [][]byte
			err  error
		)
		if n := allocated(func() { j, recs, err = Open(path) }); n > 64<<10+16*uint64(len(data)) {
			t.Fatalf("Open allocated %d bytes for a %d-byte file", n, len(data))
		}
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Open = %v (%T), want records or a *CorruptError", err, err)
			}
			return
		}
		j.Close()
		size := int64(headerSize)
		for _, r := range recs {
			size += 8 + int64(len(r))
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != size {
			t.Fatalf("file is %d bytes after Open, its %d records take %d", fi.Size(), len(recs), size)
		}
		if again := mustRecs(t, path); len(again) != len(recs) {
			t.Fatalf("reopen replayed %d records, first open %d", len(again), len(recs))
		}
	})
}
