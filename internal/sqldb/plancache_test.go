package sqldb

import (
	"fmt"
	"sync"
	"testing"
)

func TestPlanCacheHitMissCounters(t *testing.T) {
	db := New()
	if _, err := db.Prepare("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Prepare("SELECT id FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 3 || st.Size != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Capacity != defaultPlanCacheSize {
		t.Fatalf("capacity: %+v", st)
	}
}

func TestPlanCacheSharesAST(t *testing.T) {
	db := New()
	s1, err := db.Prepare("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Prepare("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("repeated Prepare must return the shared cached AST")
	}
}

func TestPlanCacheParseErrorNotCached(t *testing.T) {
	db := New()
	for i := 0; i < 2; i++ {
		if _, err := db.Prepare("SELEKT nope"); err == nil {
			t.Fatal("want parse error")
		}
	}
	if st := db.PlanCacheStats(); st.Size != 0 {
		t.Fatalf("parse errors must not be cached: %+v", st)
	}
}

// TestPlanCacheConcurrent hammers Prepare from many goroutines (same and
// distinct statements) under -race.
func TestPlanCacheConcurrent(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("SELECT id FROM t%d", i%17)
				if g%2 == 0 {
					q = "SELECT id FROM t"
				}
				if _, err := db.Prepare(q); err != nil {
					t.Errorf("prepare: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := db.PlanCacheStats()
	if st.Size == 0 || st.Hits+st.Misses != 1600 {
		t.Fatalf("stats: %+v", st)
	}
}
