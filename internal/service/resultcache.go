package service

import (
	"encoding/json"
	"sync"

	"aggrate/internal/experiment"
	"aggrate/internal/lru"
)

// resultCache is a concurrency-safe LRU over completed experiment results,
// keyed by experiment.SpecKey. Cached *Result values are shared across jobs
// and must be treated as immutable by every reader — the HTTP layer only
// marshals them.
//
// Capacity is tracked in approximate encoded bytes (the JSON the HTTP layer
// would emit, plus a fixed per-entry overhead), with the entry count as a
// secondary bound: one n=1e6 result weighs its real ~kilobytes against the
// budget instead of counting the same as a 60-node toy, so maxBytes caps
// actual memory rather than entry count. The newest entry always stays,
// even when it alone exceeds maxBytes — refusing it would make the largest
// results permanently uncacheable, the exact case the byte budget exists to
// manage.
type resultCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *experiment.Result]
}

// cacheEntryOverhead approximates the per-entry bookkeeping (list element,
// map slot, struct headers) added on top of the encoded payload.
const cacheEntryOverhead = 256

// newResultCache returns an empty cache bounded by maxItems entries and
// maxBytes bytes (Config.withDefaults makes both positive).
func newResultCache(maxItems int, maxBytes int64) *resultCache {
	return &resultCache{lru: lru.New[string, *experiment.Result](maxItems, maxBytes)}
}

// approxResultSize is the eviction weight of one cached result: its JSON
// encoding plus key and overhead. Marshal failures (impossible for Result)
// fall back to the overhead alone.
func approxResultSize(key string, res *experiment.Result) int64 {
	n := int64(len(key) + cacheEntryOverhead)
	if b, err := json.Marshal(res); err == nil {
		n += int64(len(b))
	}
	return n
}

// get returns the cached result for key, promoting it to most recent.
func (c *resultCache) get(key string) (*experiment.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// add inserts (or refreshes) key, evicting least-recently-used entries until
// both the byte and entry budgets hold.
func (c *resultCache) add(key string, res *experiment.Result) {
	size := approxResultSize(key, res)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Add(key, res, size)
}

// len reports the live entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// sizeBytes reports the tracked approximate byte footprint.
func (c *resultCache) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Bytes()
}

// stats reports the lifetime hit, miss and eviction counters.
func (c *resultCache) stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Stats()
}
