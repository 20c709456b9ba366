package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets holds the bucket layout to its documented bound:
// buckets tile [0, 2^40) ns without gaps, and each is at most 1/16 of its
// lower bound wide.
func TestHistogramBuckets(t *testing.T) {
	lo := time.Duration(0)
	for i := 0; i < buckets; i++ {
		hi := upper(i)
		if bucket(lo) != i || bucket(hi) != i {
			t.Fatalf("bucket %d = [%d, %d] ns, but those map to %d and %d", i, lo, hi, bucket(lo), bucket(hi))
		}
		if width := hi - lo + 1; width > 1 && width > lo/16 {
			t.Fatalf("bucket %d = [%d, %d] ns is wider than 1/16 of its lower bound", i, lo, hi)
		}
		lo = hi + 1
	}
	if lo != 1<<40 {
		t.Fatalf("the last bucket ends at %d ns, want 2^40", lo)
	}
}

// TestHistogramPercentileOracle compares Percentile with an exact
// nearest-rank sort over generated uniform, exponential, bimodal and
// log-uniform samples between 1 ns and 10 s, of seeded sizes: every answer
// must be the exact value or above it by less than one bucket's width, at
// most 1/16 of the value.
func TestHistogramPercentileOracle(t *testing.T) {
	const top = int64(10 * time.Second)
	clamp := func(v float64) time.Duration { return time.Duration(min(max(int64(v), 1), top)) }
	dists := map[string]func(r *rand.Rand) time.Duration{
		"uniform":     func(r *rand.Rand) time.Duration { return time.Duration(1 + r.Int63n(top)) },
		"exponential": func(r *rand.Rand) time.Duration { return clamp(r.ExpFloat64() * float64(time.Millisecond)) },
		"bimodal": func(r *rand.Rand) time.Duration {
			if r.Intn(10) < 8 {
				return clamp(float64(200*time.Microsecond) * (1 + 0.3*r.NormFloat64()))
			}
			return clamp(float64(time.Second) * (1 + 0.3*r.NormFloat64()))
		},
		"log-uniform": func(r *rand.Rand) time.Duration { return clamp(math.Exp(r.Float64() * math.Log(float64(top)))) },
	}
	for name, draw := range dists {
		for seed := int64(1); seed <= 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 1 + r.Intn(5000)
			var h Histogram
			vals := make([]time.Duration, n)
			var sum int64
			for i := range vals {
				vals[i] = draw(r)
				sum += int64(vals[i])
				h.Record(vals[i])
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			if h.Count() != int64(n) || h.Mean() != time.Duration(sum/int64(n)) {
				t.Fatalf("%s seed %d: count %d mean %v, want %d and %v", name, seed, h.Count(), h.Mean(), n, time.Duration(sum/int64(n)))
			}
			for _, p := range []float64{0.1, 1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
				exact := vals[max(int(math.Ceil(p*float64(n)/100)), 1)-1]
				if got := h.Percentile(p); got < exact || got > exact+exact/16 {
					t.Errorf("%s seed %d n=%d: p%g = %v, exact %v", name, seed, n, p, got, exact)
				}
			}
		}
	}
}

// TestHistogramExact: Mean is exact, Add merges as if both sets had been
// recorded into one histogram, Sub undoes Add, and a Snapshot is a copy.
func TestHistogramExact(t *testing.T) {
	var a, b, both Histogram
	for i := 1; i <= 5; i++ {
		a.Record(time.Duration(i) * time.Millisecond)
		both.Record(time.Duration(i) * time.Millisecond)
	}
	if a.Count() != 5 || a.Mean() != 3*time.Millisecond {
		t.Fatalf("count %d mean %v, want 5 and 3ms", a.Count(), a.Mean())
	}
	for i := 0; i < 100; i++ {
		b.Record(time.Duration(i) * time.Microsecond)
		both.Record(time.Duration(i) * time.Microsecond)
	}
	orig := a.Snapshot()
	a.Add(&b)
	if a != both {
		t.Fatal("Add differs from recording both sets into one histogram")
	}
	a.Sub(&b)
	if a != orig {
		t.Fatal("Sub after Add did not restore the receiver")
	}
	snap := a.Snapshot()
	a.Record(time.Second)
	if snap.Count() != 5 || snap.Max() != upper(bucket(5*time.Millisecond)) {
		t.Fatalf("a Record after Snapshot changed the snapshot: count %d max %v", snap.Count(), snap.Max())
	}
}

// TestHistogramEdges: the zero value reads 0, durations below 32 ns are
// exact, and durations of 2^40 ns or more clamp into the last bucket.
func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Max() != 0 {
		t.Fatal("the zero histogram must read 0")
	}
	h.Record(7)
	if h.Percentile(50) != 7 || h.Max() != 7 || h.Mean() != 7 {
		t.Fatalf("one 7ns record: p50 %v max %v mean %v", h.Percentile(50), h.Max(), h.Mean())
	}
	h.Record(1 << 40)
	h.Record(1000 * time.Hour)
	if h.Count() != 3 || h.Counts[buckets-1] != 2 || h.Max() != 1<<40-1 {
		t.Fatalf("2^40 ns and 1000h: count %d, last bucket %d, max %v", h.Count(), h.Counts[buckets-1], h.Max())
	}
}

// TestHistogramConcurrentRecord: Records from many goroutines lose nothing
// (run under -race).
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Record(time.Duration(i%1000) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 80000 || h.Mean() != 499500*time.Nanosecond {
		t.Fatalf("count %d mean %v, want 80000 and 499.5µs", h.Count(), h.Mean())
	}
}
