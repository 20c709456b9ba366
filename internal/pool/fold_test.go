package pool_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Pools are folded and windowed by internal/telemetry's one rule (Add,
// Snapshot.Delta); these tests hold that rule to what a pool row needs.

// window is the pool of after.Delta(before), each a one-tier snapshot.
func window(after, before pool.Stats) pool.Stats {
	snap := func(ps pool.Stats) *telemetry.Snapshot {
		return &telemetry.Snapshot{Tiers: []telemetry.Tier{{Name: "t", Pool: &ps}}}
	}
	return *snap(after).Delta(snap(before)).Tiers[0].Pool
}

// TestSumMergesBorrow: a replicated tier's borrow percentiles are those of
// all its borrows. 1000 fast borrows on one pool and 10 slow ones on another
// put the slow ones above the tier's 99th percentile, so the tier's P95 is
// the fast pool's 960th borrow — not the slow pool's P95, which the fold
// reported when it took the worst pool's figure.
func TestSumMergesBorrow(t *testing.T) {
	var slow atomic.Bool
	fast, slowPool := pool.SlowDialPool(&slow), pool.SlowDialPool(&slow)
	defer fast.Close()
	defer slowPool.Close()
	pool.Borrow(t, fast, 1000, false)
	slow.Store(true)
	pool.Borrow(t, slowPool, 10, true)

	f, s := fast.Stats(), slowPool.Stats()
	sum := pool.Stats{Name: "tier"}
	telemetry.Add(&sum, f)
	telemetry.Add(&sum, s)
	if sum.Borrow.Count() != 1010 || sum.Gets != 1010 {
		t.Fatalf("merged %d borrows over %d gets, want 1010", sum.Borrow.Count(), sum.Gets)
	}
	if s.Borrow.Percentile(95) < pool.SlowDial {
		t.Fatalf("slow pool's P95 %v, want at least %v", s.Borrow.Percentile(95), pool.SlowDial)
	}
	// Rank ceil(0.95·1010) = 960 of the tier is rank 960 of the fast pool.
	if got, want := sum.Borrow.Percentile(95), f.Borrow.Percentile(96); got != want || got >= pool.SlowDial {
		t.Fatalf("tier P95 = %v, want the fast pool's 960th borrow %v", got, want)
	}
	if sum.Borrow.SumNs != f.Borrow.SumNs+s.Borrow.SumNs {
		t.Fatal("merged borrow time is not the sum of the pools'")
	}
}

// TestSubWindowsBorrow: the delta of two snapshots holds exactly the
// borrows between them, so a run-windowed table's borrow P95 is the
// window's. Slow borrows before the first snapshot must not show in it, as
// they did when the window kept the boot-to-end latency figures.
func TestSubWindowsBorrow(t *testing.T) {
	var slow atomic.Bool
	p := pool.SlowDialPool(&slow)
	defer p.Close()
	slow.Store(true)
	pool.Borrow(t, p, 10, true)
	slow.Store(false)
	before := p.Stats()
	pool.Borrow(t, p, 100, false)
	after := p.Stats()

	d := window(after, before)
	if d.Gets != 100 || d.Borrow.Count() != 100 {
		t.Fatalf("window: %d gets, %d borrows timed, want 100", d.Gets, d.Borrow.Count())
	}
	if after.Borrow.Max() < pool.SlowDial {
		t.Fatalf("boot-to-end max %v, want the slow borrows' %v or more", after.Borrow.Max(), pool.SlowDial)
	}
	if p95, worst := d.Borrow.Percentile(95), d.Borrow.Max(); worst >= pool.SlowDial || p95 > worst {
		t.Fatalf("window P95 %v max %v: the slow borrows before the window leaked in", p95, worst)
	}
	if d.Borrow.SumNs != after.Borrow.SumNs-before.Borrow.SumNs {
		t.Fatal("window borrow time is not the difference of the snapshots'")
	}
}

// refSum and refSub are the pool package's own fold and window, written
// out field by field, kept here as the reference telemetry's rule must
// match: capacities, gauges, counters and borrow histograms sum under the
// given name; a window subtracts the counters and the histogram and keeps
// the later snapshot's gauges and name.
func refSum(name string, pools []pool.Stats) pool.Stats {
	agg := pool.Stats{Name: name}
	for _, ps := range pools {
		agg.Capacity += ps.Capacity
		agg.InUse += ps.InUse
		agg.Idle += ps.Idle
		agg.Dials += ps.Dials
		agg.Gets += ps.Gets
		agg.Waits += ps.Waits
		agg.WaitNanos += ps.WaitNanos
		agg.Discards += ps.Discards
		agg.Retries += ps.Retries
		agg.WaitTimeouts += ps.WaitTimeouts
		agg.OpTimeouts += ps.OpTimeouts
		agg.TimeoutNanos += ps.TimeoutNanos
		agg.Borrow.Add(&ps.Borrow)
	}
	return agg
}

func refSub(s, prev pool.Stats) pool.Stats {
	d := s
	d.Dials -= prev.Dials
	d.Gets -= prev.Gets
	d.Waits -= prev.Waits
	d.WaitNanos -= prev.WaitNanos
	d.Discards -= prev.Discards
	d.Retries -= prev.Retries
	d.WaitTimeouts -= prev.WaitTimeouts
	d.OpTimeouts -= prev.OpTimeouts
	d.TimeoutNanos -= prev.TimeoutNanos
	d.Borrow.Sub(&prev.Borrow)
	return d
}

// randomRow gives every field of a pool row a random value: gauges and
// counters by kind, the borrow histogram a random number of recorded
// borrows, so a field added to pool.Stats is covered without a line here.
func randomRow(r *rand.Rand) pool.Stats {
	var s pool.Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprint("p", r.Intn(100)))
		case reflect.Int, reflect.Int64:
			f.SetInt(r.Int63n(1 << 40))
		}
	}
	for n := r.Intn(300); n > 0; n-- {
		s.Borrow.Record(time.Duration(r.Int63n(int64(time.Minute))))
	}
	return s
}

// samePool fails on each field of got that differs from want, and on the
// first differing bucket of the borrow histogram.
func samePool(t *testing.T, what string, got, want pool.Stats) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if gh, ok := gv.Field(i).Interface().(stats.Histogram); ok {
			wh := wv.Field(i).Interface().(stats.Histogram)
			for j := range gh.Counts {
				if gh.Counts[j] != wh.Counts[j] {
					t.Errorf("%s: %s bucket %d = %d, want %d", what, name, j, gh.Counts[j], wh.Counts[j])
					break
				}
			}
			if gh.SumNs != wh.SumNs {
				t.Errorf("%s: %s sum = %d, want %d", what, name, gh.SumNs, wh.SumNs)
			}
			continue
		}
		if !gv.Field(i).Equal(wv.Field(i)) {
			t.Errorf("%s: %s = %v, want %v", what, name, gv.Field(i), wv.Field(i))
		}
	}
}

// TestFoldMatchesReference: on seeded random pool rows, telemetry.Add
// folds like refSum and Snapshot.Delta windows like refSub, field by field
// and bucket by bucket.
func TestFoldMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		pools := make([]pool.Stats, 1+r.Intn(4))
		for j := range pools {
			pools[j] = randomRow(r)
		}
		sum := pool.Stats{Name: "fold"}
		for _, ps := range pools {
			telemetry.Add(&sum, ps)
		}
		samePool(t, fmt.Sprintf("row %d Add", i), sum, refSum("fold", pools))
		samePool(t, fmt.Sprintf("row %d Delta", i), window(pools[0], pools[len(pools)-1]), refSub(pools[0], pools[len(pools)-1]))
	}
}
