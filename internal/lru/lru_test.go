package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// cells are a test owner's counter cells.
type cells struct{ hits, misses, invalidations atomic.Int64 }

func (c *cells) counters() Counters { return Counters{&c.hits, &c.misses, &c.invalidations} }

// TestEvictsLeastRecentlyUsed: filling past Max evicts the entry touched
// longest ago, and a Get counts as a touch.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int](2, Counters{})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts "a"
	if n := c.Len(); n != 2 {
		t.Fatalf("%d entries, want 2", n)
	}
	if _, ok := c.Get("a", nil); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if v, ok := c.Get("b", nil); !ok || v != 2 {
		t.Fatalf("recent entry: %d %v", v, ok)
	}
	// Touching "b" made "c" the LRU candidate.
	c.Put("d", 4)
	if _, ok := c.Get("c", nil); ok {
		t.Fatal("LRU order not maintained")
	}
	if _, ok := c.Get("b", nil); !ok {
		t.Fatal("recently used entry evicted")
	}
	// Put on a present key replaces in place and evicts nothing.
	c.Put("b", 20)
	if v, _ := c.Get("b", nil); v != 20 {
		t.Fatalf("replaced value %d, want 20", v)
	}
	if _, ok := c.Get("d", nil); !ok {
		t.Fatal("replacing a present key evicted another")
	}
}

// TestModel drives random Get and Put calls, with a freshness test that
// rejects odd values, against a slice kept most recent first. It checks
// every Get's outcome and value and all three counters after every call —
// a wrong eviction victim shows as a later Get hitting or missing against
// the model — and finally drains the cache to check its recency order.
func TestModel(t *testing.T) {
	type kv struct {
		key string
		val int
	}
	even := func(v int) bool { return v%2 == 0 }
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		max := 1 + rng.Intn(6)
		var ctr cells
		c := New[int](max, ctr.counters())
		var model []kv // front = most recently used
		var hits, misses, invalidations int64
		find := func(key string) int {
			for i, e := range model {
				if e.key == key {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 2000; op++ {
			key := fmt.Sprint(rng.Intn(10))
			if rng.Intn(2) == 0 {
				val := rng.Intn(100)
				c.Put(key, val)
				if i := find(key); i >= 0 {
					model = append(model[:i], model[i+1:]...)
				}
				model = append([]kv{{key, val}}, model...)
				if len(model) > max {
					model = model[:max]
				}
			} else {
				var fresh func(int) bool
				if rng.Intn(2) == 0 {
					fresh = even
				}
				got, ok := c.Get(key, fresh)
				i := find(key)
				wantHit := i >= 0 && (fresh == nil || fresh(model[i].val))
				if ok != wantHit || ok && got != model[i].val {
					t.Fatalf("seed %d op %d: Get(%s) = %d %v, model index %d", seed, op, key, got, ok, i)
				}
				switch {
				case wantHit:
					e := model[i]
					model = append([]kv{e}, append(model[:i], model[i+1:]...)...)
					hits++
				case i >= 0:
					model = append(model[:i], model[i+1:]...)
					invalidations++
					misses++
				default:
					misses++
				}
			}
			if n, h, m, inv := c.Len(), ctr.hits.Load(), ctr.misses.Load(), ctr.invalidations.Load(); n != len(model) || h != hits || m != misses || inv != invalidations {
				t.Fatalf("seed %d op %d: len %d hits %d misses %d invalidations %d, model len %d hits %d misses %d invalidations %d",
					seed, op, n, h, m, inv, len(model), hits, misses, invalidations)
			}
		}
		// The model's recency order is the cache's: once the cache is full,
		// each new key evicts the model's oldest remaining entry.
		for j := len(model); j < max; j++ {
			c.Put(fmt.Sprint("pad", j), 0)
		}
		for i := len(model) - 1; i >= 0; i-- {
			c.Put(fmt.Sprint("fill", i), 0)
			if _, ok := c.Get(model[i].key, nil); ok {
				t.Fatalf("seed %d: %s outlived a newer entry", seed, model[i].key)
			}
		}
	}
}

// TestConcurrent hammers one cache from several goroutines under -race:
// every Get is counted exactly once, the bound holds, and a hit returns
// the value stored under its key.
func TestConcurrent(t *testing.T) {
	const workers, ops, max = 8, 2000, 16
	var ctr cells
	c := New[string](max, ctr.counters())
	var gets atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				key := fmt.Sprint(rng.Intn(3 * max))
				if rng.Intn(3) == 0 {
					c.Put(key, "v"+key)
					continue
				}
				fresh := func(v string) bool { return rng.Intn(8) != 0 }
				gets.Add(1)
				if v, ok := c.Get(key, fresh); ok && v != "v"+key {
					t.Errorf("Get(%s) = %q", key, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	n, hits, misses, inv := c.Len(), ctr.hits.Load(), ctr.misses.Load(), ctr.invalidations.Load()
	if n > max || hits == 0 || inv == 0 {
		t.Fatalf("len %d, %d hits, %d invalidations", n, hits, inv)
	}
	if hits+misses != gets.Load() {
		t.Fatalf("%d hits + %d misses: %d Gets made", hits, misses, gets.Load())
	}
}
