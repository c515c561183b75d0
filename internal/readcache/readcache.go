// Package readcache is the serving path's response cache: hot read
// responses — the server caches each entity's describe/aggregate
// body — are held as pre-encoded JSON bytes and served without
// recomputing aggregates or re-running the encoder. Entries are
// invalidated precisely by the commit pipeline: the server registers a
// store commit hook that maps each applied record to the entity it
// touched, so a cached response can never outlive the state it was
// computed from by more than the in-flight race window of the commit
// that changed it.
//
// The cache reuses the internal/stripe routing the read stores and the
// commit pipeline shard on: entries shard by stripe.Index of the
// entity key, hits are lock-free (one atomic map load), and an
// invalidation touches only its own stripe.
//
// Fills are generation-guarded against the classic stale-fill race: a
// reader that computed its response from pre-commit state must not
// install it after the commit's invalidation ran. Get captures the
// stripe's generation before the caller reads any store state;
// Invalidate bumps it; Put installs only if the generation is
// unchanged. A lost fill costs one recompute on the next miss — a
// stale install would serve old bytes forever.
package readcache

import (
	"sync"
	"sync/atomic"

	"opinions/internal/obs"
	"opinions/internal/stripe"
)

var (
	metricHits = obs.Default.Counter("readcache_hits_total",
		"Read-cache hits: responses served from pre-encoded bytes.")
	metricMisses = obs.Default.Counter("readcache_misses_total",
		"Read-cache misses: responses computed and encoded on demand.")
	metricInvalidations = obs.Default.Counter("readcache_invalidations_total",
		"Read-cache entries evicted by commit invalidation (including full flushes).")
)

// shard is one stripe of the cache. Hits go straight through the
// sync.Map; mu serializes fills against invalidations so the
// generation check and the install are one atomic step.
type shard struct {
	gen atomic.Uint64
	mu  sync.Mutex
	m   sync.Map // namespace+"\x00"+key -> []byte
}

// Cache is a sharded pre-encoded response cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache struct {
	shards [stripe.NumShards]shard

	hits   atomic.Uint64
	misses atomic.Uint64
	invals atomic.Uint64
}

// New returns an empty cache.
func New() *Cache { return &Cache{} }

func (c *Cache) shardFor(key string) *shard { return &c.shards[stripe.Index(key)] }

func mapKey(ns, key string) string { return ns + "\x00" + key }

// Get looks up the pre-encoded response for (ns, key). On a hit it
// returns the cached bytes, which the caller must treat as immutable.
// On a miss it returns the stripe's current generation: capture it
// BEFORE reading any store state, and hand it back to Put so a fill
// computed from pre-invalidation state is dropped instead of
// installed.
func (c *Cache) Get(ns, key string) (body []byte, gen uint64, ok bool) {
	sh := c.shardFor(key)
	gen = sh.gen.Load()
	if v, hit := sh.m.Load(mapKey(ns, key)); hit {
		c.hits.Add(1)
		metricHits.Inc()
		return v.([]byte), gen, true
	}
	c.misses.Add(1)
	metricMisses.Inc()
	return nil, gen, false
}

// Put installs body for (ns, key) if the stripe's generation still
// matches gen (as returned by the Get that missed). It reports whether
// the entry was installed; false means an invalidation ran since the
// Get and the bytes may describe stale state. The cache takes
// ownership of body — callers must not mutate it afterwards.
func (c *Cache) Put(ns, key string, gen uint64, body []byte) bool {
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.gen.Load() != gen {
		return false
	}
	sh.m.Store(mapKey(ns, key), body)
	return true
}

// Invalidate evicts every namespace's entry for key and bumps the
// stripe's generation so concurrent fills computed from older state
// are dropped. Namespaces are enumerated by the caller-supplied list;
// the generation bump alone already fences fills for the whole stripe.
func (c *Cache) Invalidate(key string, namespaces ...string) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	sh.gen.Add(1)
	for _, ns := range namespaces {
		if _, ok := sh.m.LoadAndDelete(mapKey(ns, key)); ok {
			c.invals.Add(1)
			metricInvalidations.Inc()
		}
	}
	sh.mu.Unlock()
}

// Reset flushes the whole cache — every entry in every stripe — and
// bumps every stripe's generation. Used for snapshot restores, where
// per-entity invalidation cannot bound what changed.
func (c *Cache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.gen.Add(1)
		sh.m.Range(func(k, _ any) bool {
			sh.m.Delete(k)
			c.invals.Add(1)
			metricInvalidations.Inc()
			return true
		})
		sh.mu.Unlock()
	}
}

// Len counts the cached entries across all stripes (tests and
// introspection; O(entries)).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].m.Range(func(_, _ any) bool { n++; return true })
	}
	return n
}

// Stats returns this cache's cumulative hit, miss, and invalidation
// counts. The process-wide readcache_*_total metrics aggregate across
// caches; these are per-instance.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	return c.hits.Load(), c.misses.Load(), c.invals.Load()
}
