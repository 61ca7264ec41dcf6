// Package journal is the durability substrate for the cluster
// coordinator: an append-only record log with per-record CRC32
// protection, torn-tail truncation on replay, and atomic rewrite
// (rotation), plus a content-addressed blob store for bulk payloads
// (checkpoints, result draw blocks) that would bloat the log.
//
// The log is the source of truth for control-plane state transitions
// (admit, lease, checkpoint-received, result, cancel, requeue); the blob
// store holds the bytes those records reference by content hash. Crash
// consistency comes from ordering: a blob is written and fsynced before
// the record referencing it is appended, and every record append is
// fsynced before the mutation it describes is acknowledged to a client
// or worker. A process killed at any instant therefore leaves either a
// fully-applied record or a torn tail — never an acknowledged mutation
// that replay cannot reconstruct.
//
// A failed append is sticky: once a write or its fsync fails, every later
// Append returns that first error and writes nothing. The failed write
// may have left a partial record, and one followed by good records would
// read on replay as mid-log corruption; and an fsync retried after a
// failed one proves nothing about the bytes the failure covered.
//
// File format:
//
//	header:  "BSJL" magic, u32 version            (8 bytes)
//	record:  u32 payload length, u32 CRC32-IEEE(payload), payload
//
// all little-endian. Replay distinguishes two failure shapes: a record
// whose bytes run past EOF or whose final-position CRC fails is a torn
// tail (the crash interrupted an append) and is silently truncated; a
// CRC mismatch with further bytes after the record is real corruption —
// replay refuses with a typed *CorruptError rather than resurrect state
// it cannot trust.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

var magic = [4]byte{'B', 'S', 'J', 'L'}

const (
	version    = 1
	headerSize = 8
	// maxRecord bounds a single record; anything larger is corruption
	// (control-plane records are small — bulk bytes live in the blob
	// store).
	maxRecord = 64 << 20
)

// CorruptError reports unrecoverable mid-log corruption: a record whose
// CRC fails while later bytes still follow it, or a mangled file header.
// Torn tails (a crash mid-append) are not corruption and never produce
// this error — they are truncated on open.
type CorruptError struct {
	Path string
	// Offset is the byte offset of the corrupt record (or 0 for a bad
	// header); Index is its record index.
	Offset int64
	Index  int
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: %s corrupt at offset %d (record %d): %s", e.Path, e.Offset, e.Index, e.Reason)
}

// Journal is an append-only record log open for writing. Every Append
// is fsynced before it returns, so an acknowledged record survives
// SIGKILL.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
	err  error // the first failed write or fsync; sticky
}

// Open opens (creating if absent) the journal at path, replays its
// valid records, truncates any torn tail, and returns the journal
// positioned for append together with the replayed record payloads.
// Mid-log corruption returns a *CorruptError and no journal — the
// caller must not rebuild state from a log it cannot trust.
func Open(path string) (*Journal, [][]byte, error) {
	recs, valid, err := Scan(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if fi.Size() == 0 {
		// Fresh log: stamp the header before the first record.
		var hdr [headerSize]byte
		copy(hdr[:4], magic[:])
		binary.LittleEndian.PutUint32(hdr[4:], version)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, nil, err
		}
	} else if fi.Size() > valid {
		// Torn tail from a crash mid-append: drop it so the next append
		// starts at a record boundary.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{path: path, f: f}, recs, nil
}

// Scan reads the journal at path read-only, returning every valid
// record payload and the byte offset just past the last valid record
// (the truncation point for a torn tail). A missing file is an empty
// journal. Mid-log corruption returns *CorruptError.
func Scan(path string) (recs [][]byte, validSize int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < headerSize || [4]byte(data[:4]) != magic {
		return nil, 0, &CorruptError{Path: path, Offset: 0, Reason: "bad file magic"}
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != version {
		return nil, 0, &CorruptError{Path: path, Offset: 4, Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	off := int64(headerSize)
	size := int64(len(data))
	for off < size {
		if size-off < 8 {
			return recs, off, nil // torn: header of the next record is incomplete
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecord {
			return nil, 0, &CorruptError{Path: path, Offset: off, Index: len(recs),
				Reason: fmt.Sprintf("record length %d exceeds limit", n)}
		}
		end := off + 8 + n
		if end > size {
			return recs, off, nil // torn: payload ran past EOF mid-append
		}
		payload := data[off+8 : end]
		if crc32.ChecksumIEEE(payload) != sum {
			if end == size {
				// The final record's bytes are all present but the CRC
				// fails: a torn write that got the length down but not the
				// payload. Truncate, same as a short tail.
				return recs, off, nil
			}
			return nil, 0, &CorruptError{Path: path, Offset: off, Index: len(recs), Reason: "CRC mismatch"}
		}
		recs = append(recs, append([]byte(nil), payload...))
		off = end
	}
	return recs, off, nil
}

// Append durably appends one record: length + CRC + payload, fsynced
// before returning. After a failed Append, it returns that failure.
func (j *Journal) Append(payload []byte) error {
	if int64(len(payload)) > maxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds limit", len(payload))
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if j.err != nil {
		return j.err
	}
	if _, j.err = j.f.Write(buf); j.err == nil {
		j.err = j.f.Sync()
	}
	return j.err
}

// Rewrite atomically replaces the journal's contents with recs: the new
// log is written to a temp file in the same directory, fsynced, renamed
// over the old one, and the directory entry fsynced — the rotation is
// all-or-nothing under SIGKILL (either the old log or the new one is
// fully present, never a mix). The journal stays open for append on the
// new file. Used to compact the log after recovery: superseded records
// (old leases, GCed checkpoints) drop out.
func (j *Journal) Rewrite(recs [][]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".rotate-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], version)
	if _, err := tmp.Write(hdr[:]); err != nil {
		return fail(err)
	}
	for _, payload := range recs {
		var rh [8]byte
		binary.LittleEndian.PutUint32(rh[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rh[4:], crc32.ChecksumIEEE(payload))
		if _, err := tmp.Write(rh[:]); err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(payload); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		return fail(err)
	}
	if err := syncDir(dir); err != nil {
		tmp.Close()
		return err
	}
	// Swap the append handle onto the new file.
	old := j.f
	j.f = tmp
	old.Close()
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the file handle. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
