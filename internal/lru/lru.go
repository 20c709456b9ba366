// Package lru is the stack's one bounded cache: a least-recently-used map
// from string keys to values, safe for concurrent use. The plan cache
// (internal/sqldb), the query-result cache (internal/cluster) and the page
// cache (internal/lb) all store through it. Each owner keeps what differs
// between them — how a key is built, when an entry is still fresh, and the
// defensive copies of what it hands out; this package keeps recency,
// eviction, and counts hits, misses and invalidations into cells its owner
// names (DESIGN.md §4).
package lru

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache holds at most Max entries, evicting the least recently used.
// Values are stored and returned as given: an owner whose values reference
// mutable state copies it itself.
type Cache[V any] struct {
	max int

	mu    sync.Mutex
	ll    list.List // front = most recently used; values are *entry[V]
	items map[string]*list.Element

	ctr Counters
}

// Counters are the owner's cells a cache counts its lookups into. An owner
// names them after the telemetry fields they fill (telemetry.Load); a nil
// cell is not counted.
type Counters struct {
	Hits, Misses, Invalidations *atomic.Int64
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache bounded at max entries, which must be
// positive, counting its lookups into ctr's cells.
func New[V any](max int, ctr Counters) *Cache[V] {
	if max <= 0 {
		panic("lru: max must be positive")
	}
	return &Cache[V]{max: max, items: make(map[string]*list.Element), ctr: ctr}
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
			count(c.ctr.Hits)
			return e.val, true
		}
		c.ll.Remove(el)
		delete(c.items, key)
		count(c.ctr.Invalidations)
	}
	count(c.ctr.Misses)
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

func count(cell *atomic.Int64) {
	if cell != nil {
		cell.Add(1)
	}
}

// Len returns the number of entries held.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
