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
	if st, n := db.Telemetry(), db.plans.Len(); st.PlanMisses != 1 || st.PlanHits != 3 || n != 1 {
		t.Fatalf("%d misses, %d hits, %d entries; want 1, 3, 1", st.PlanMisses, st.PlanHits, n)
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
	if n := db.plans.Len(); n != 0 {
		t.Fatalf("parse errors must not be cached: %d entries", n)
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
	if st, n := db.Telemetry(), db.plans.Len(); n == 0 || st.PlanHits+st.PlanMisses != 1600 {
		t.Fatalf("%d entries, %d hits + %d misses; want 1600 lookups", n, st.PlanHits, st.PlanMisses)
	}
}
