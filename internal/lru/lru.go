// Package lru is the stack's one bounded cache: a least-recently-used map
// from string keys to values, safe for concurrent use. The plan cache
// (internal/sqldb), the query-result cache (internal/cluster) and the page
// cache (internal/lb) all store through it. Each owner keeps what differs
// between them — how a key is built, when an entry is still fresh, and the
// defensive copies of what it hands out; this package keeps recency,
// eviction and the hit, miss and invalidation counters (DESIGN.md §10).
package lru

import (
	"container/list"
	"sync"
)

// Cache holds at most Max entries, evicting the least recently used.
// Values are stored and returned as given: an owner whose values reference
// mutable state copies it itself.
type Cache[V any] struct {
	max int

	mu    sync.Mutex
	ll    list.List // front = most recently used; values are *entry[V]
	items map[string]*list.Element

	hits, misses, invalidations int64
}

type entry[V any] struct {
	key string
	val V
}

// Stats is a snapshot of a cache's counters and size.
type Stats struct {
	Hits, Misses, Invalidations int64
	Len, Max                    int
}

// New returns an empty cache bounded at max entries, which must be positive.
func New[V any](max int) *Cache[V] {
	if max <= 0 {
		panic("lru: max must be positive")
	}
	return &Cache[V]{max: max, items: make(map[string]*list.Element)}
}

// Get returns the value stored under key and marks it most recently used.
// A non-nil fresh is the owner's validity test: an entry it rejects is
// removed and counted as an invalidation and a miss. fresh runs under the
// cache's lock, so it must be quick and must not call back into the cache.
func (c *Cache[V]) Get(key string, fresh func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		e := el.Value.(*entry[V])
		if fresh == nil || fresh(e.val) {
			c.ll.MoveToFront(el)
			c.hits++
			return e.val, true
		}
		c.ll.Remove(el)
		delete(c.items, key)
		c.invalidations++
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores v under key as the most recently used entry, replacing any
// value already there, and evicts the least recently used entry past Max.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v})
	if c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry[V]).key)
	}
}

// Stats snapshots the counters and the current size.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations, Len: c.ll.Len(), Max: c.max}
}
