package store

import "sync"

// Ledger is the server half of exactly-once uploads: a bounded,
// FIFO-evicting set of the idempotency keys of already-applied uploads.
// A client that retries after a truncated 2xx, or redelivers a spooled
// upload under a fresh token after a restart, presents the same key; the
// ledger lets the upload path answer success without re-applying, so a
// flaky network cannot double-count an inferred opinion.
//
// The ledger lives in the durable store because its contents are state:
// key admission is replayed from the write-ahead log (each applied
// upload record carries its key) and folded into snapshots, so
// exactly-once holds across crashes, not just clean restarts.
//
// The bound keeps memory constant under the north-star load (millions of
// flaky clients): a key only matters while its upload might still be
// retried, which the client's spool cycle bounds to far less than the
// ledger's horizon at any plausible capacity. Eviction of an ancient key
// degrades that one upload to at-least-once, never to loss.
//
// Keys carry no identity — they are client-drawn randomness, unlinkable
// across uploads — so persisting them in snapshots and WAL records leaks
// nothing the anonymous histories do not already contain.
type Ledger struct {
	mu       sync.Mutex
	capacity int
	seen     map[string]struct{}
	order    []string // FIFO, oldest first; len(order) == len(seen)
	inflight map[string]struct{}
}

// DefaultDedupCapacity bounds the store's ledger.
const DefaultDedupCapacity = 1 << 16

// NewLedger returns an empty ledger holding at most capacity keys
// (DefaultDedupCapacity when non-positive).
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultDedupCapacity
	}
	return &Ledger{
		capacity: capacity,
		seen:     make(map[string]struct{}),
		inflight: make(map[string]struct{}),
	}
}

// Begin claims key for an apply in progress. It reports done=true when
// the key was already committed (the caller must answer success without
// re-applying) and dup=true when another request is mid-apply with the
// same key (the caller treats the upload as delivered — the racing
// twin owns the apply).
func (l *Ledger) Begin(key string) (done, dup bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.seen[key]; ok {
		return true, false
	}
	if _, ok := l.inflight[key]; ok {
		return false, true
	}
	l.inflight[key] = struct{}{}
	return false, false
}

// Commit records key as applied and releases the in-flight claim,
// evicting the oldest key when over capacity.
func (l *Ledger) Commit(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.inflight, key)
	if _, ok := l.seen[key]; ok {
		return
	}
	l.seen[key] = struct{}{}
	l.order = append(l.order, key)
	for len(l.order) > l.capacity {
		delete(l.seen, l.order[0])
		l.order = l.order[1:]
	}
}

// Abort releases the in-flight claim without recording the key: the
// apply failed, so a retry must be allowed to run it again.
func (l *Ledger) Abort(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.inflight, key)
}

// Remove erases every trace of key — committed or in flight. The upload
// path calls this when a durability failure strikes after the key was
// admitted: the client never received an acknowledgement, so its retry
// must be allowed to apply from scratch (against the restarted server).
func (l *Ledger) Remove(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.inflight, key)
	if _, ok := l.seen[key]; !ok {
		return
	}
	delete(l.seen, key)
	for i, k := range l.order {
		if k == key {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
}

// Contains reports whether key has been committed.
func (l *Ledger) Contains(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.seen[key]
	return ok
}

// Len reports the number of committed keys held.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order)
}

// Dump returns the committed keys, oldest first, for snapshotting.
func (l *Ledger) Dump() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

// Restore replaces the ledger contents with keys (oldest first),
// truncating from the old end when over capacity.
func (l *Ledger) Restore(keys []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if excess := len(keys) - l.capacity; excess > 0 {
		keys = keys[excess:]
	}
	l.seen = make(map[string]struct{}, len(keys))
	l.order = make([]string, 0, len(keys))
	for _, k := range keys {
		if _, ok := l.seen[k]; ok {
			continue
		}
		l.seen[k] = struct{}{}
		l.order = append(l.order, k)
	}
	l.inflight = make(map[string]struct{})
}
