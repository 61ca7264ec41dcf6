package hw

import "sync"

// memoCap bounds every Memo. The figure harness, the DSE and a serving
// daemon each see a few hundred distinct keys at most; past the cap an
// arbitrary entry makes room, so a cyclic key set larger than the table
// still hits (the argument the LLC model makes for random replacement,
// applied to itself).
const memoCap = 1024

// Memo is a bounded, concurrency-safe table of a pure function's results:
// the function runs once per key while the key stays in the table, and
// concurrent callers of one key wait for the first instead of repeating
// its work. The hardware model is deterministic in its inputs, so
// characterising a spec once per process loses nothing.
type Memo[K comparable, V any] struct {
	fn func(K) V
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// NewMemo returns an empty table for fn, which must be a pure function of
// its key and safe to call from several goroutines at once (on different
// keys).
func NewMemo[K comparable, V any](fn func(K) V) *Memo[K, V] {
	return &Memo[K, V]{fn: fn, m: make(map[K]*memoEntry[V])}
}

// Get returns fn(k), computing it if the table does not hold it.
func (t *Memo[K, V]) Get(k K) V {
	t.mu.Lock()
	e := t.m[k]
	if e == nil {
		if len(t.m) >= memoCap {
			for old := range t.m {
				delete(t.m, old)
				break
			}
		}
		e = new(memoEntry[V])
		t.m[k] = e
	}
	t.mu.Unlock()
	// An entry evicted while its first caller is still computing stays
	// valid for the callers that already hold it.
	e.once.Do(func() { e.v = t.fn(k) })
	return e.v
}
