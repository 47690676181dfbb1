// Package lru is the one least-recently-used cache behind aggrate's result
// cache (internal/service), deployment cache (internal/experiment) and slot
// verification cache (internal/schedule): a map plus a recency list, bounded
// by an entry budget, a byte budget, or both.
package lru

// Cache maps K to V in recency order. Every entry carries a caller-supplied
// size charged against the byte budget. Eviction drops least-recently-used
// entries while either budget is exceeded, but always keeps the newest entry
// — so a single oversized value still serves the caller that added it — and
// skips entries the Pinned hook reports.
//
// A Cache is not safe for concurrent use; callers serialize access. Peek
// changes nothing, so concurrent Peeks are safe while no other call runs.
type Cache[K comparable, V any] struct {
	// Pinned, when non-nil, marks entries eviction must skip (the deployment
	// cache pins in-flight builds, whose waiters hold the entry).
	Pinned func(V) bool

	maxEntries int
	maxBytes   int64
	bytes      int64
	items      map[K]*entry[K, V]
	// root is the list sentinel: root.next is the newest entry, root.prev
	// the next to evict.
	root entry[K, V]

	hits, misses, evictions int64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// New returns an empty cache holding at most maxEntries entries and
// maxBytes bytes; a budget ≤ 0 leaves that dimension unbounded.
func New[K comparable, V any](maxEntries int, maxBytes int64) *Cache[K, V] {
	c := &Cache[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, items: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value for k, promoting it to newest and counting a hit or
// a miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e, ok := c.items[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveFront(e)
	return e.val, true
}

// Peek returns the value for k without promoting it or counting.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	if e, ok := c.items[k]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Add inserts or replaces k as the newest entry, weighing size bytes, then
// evicts past the budgets.
func (c *Cache[K, V]) Add(k K, v V, size int64) {
	e, ok := c.items[k]
	if ok {
		c.bytes -= e.size
		c.unlink(e)
	} else {
		e = &entry[K, V]{key: k}
		c.items[k] = e
	}
	e.val, e.size = v, size
	c.bytes += size
	c.pushFront(e)
	c.evict()
}

// RemoveFunc drops every entry for which f reports true and returns how
// many it dropped. Removals are not counted as evictions.
func (c *Cache[K, V]) RemoveFunc(f func(K, V) bool) int {
	n := 0
	for e := c.root.next; e != &c.root; {
		next := e.next
		if f(e.key, e.val) {
			c.drop(e)
			n++
		}
		e = next
	}
	return n
}

// Keys returns the keys from newest to oldest.
func (c *Cache[K, V]) Keys() []K {
	keys := make([]K, 0, len(c.items))
	for e := c.root.next; e != &c.root; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Bytes reports the summed size of the entries.
func (c *Cache[K, V]) Bytes() int64 { return c.bytes }

// Stats reports the lifetime counters: Get hits and misses, and entries
// evicted by a budget.
func (c *Cache[K, V]) Stats() (hits, misses, evictions int64) {
	return c.hits, c.misses, c.evictions
}

// evict drops the least-recently-used unpinned entry other than the newest
// while a budget is exceeded.
func (c *Cache[K, V]) evict() {
	for (c.maxEntries > 0 && len(c.items) > c.maxEntries) || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		victim := c.root.prev
		for victim != &c.root && c.Pinned != nil && c.Pinned(victim.val) {
			victim = victim.prev
		}
		if victim == &c.root || victim == c.root.next {
			return
		}
		c.drop(victim)
		c.evictions++
	}
}

func (c *Cache[K, V]) drop(e *entry[K, V]) {
	c.unlink(e)
	delete(c.items, e.key)
	c.bytes -= e.size
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

func (c *Cache[K, V]) moveFront(e *entry[K, V]) {
	c.unlink(e)
	c.pushFront(e)
}
