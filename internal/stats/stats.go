// Package stats is the latency record the stack measures with: one
// fixed-bucket Histogram that a hot path updates with atomic adds alone, and
// whose snapshots add and subtract exactly — so a replicated tier's figure
// is the merge of its pools and a measured window is the difference of two
// snapshots — beside the Gauge, a level read at snapshot time. It plays the
// role of the sysstat post-mortem analysis in the paper's methodology
// (§4.5), which requires measurement that does not perturb what it
// measures.
package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Gauge is a level at snapshot time — connections in use, requests in
// flight — not a count since boot: rows of several owners sum their gauges,
// and a measured window keeps the current reading (internal/telemetry's
// accumulate holds every row to that).
type Gauge int

// buckets is the number of Histogram buckets: one per nanosecond below
// 16 ns, then 16 per power of two from 2^4 up to 2^40 ns (≈ 18 min).
const buckets = 16 + 36*16

// Histogram counts durations in fixed log-linear buckets. A bucket's width
// is at most 1/16 of its lower bound, so Percentile is within 1/16 (6.25 %)
// of the exact nearest-rank value; durations of 2^40 ns or more share the
// last bucket. Record is safe for concurrent use and takes no lock; the
// other methods read a value that is no longer written — a Snapshot, or a
// histogram whose writers have finished. The zero value is empty.
type Histogram struct {
	Counts [buckets]int64 `json:"counts"`
	SumNs  int64          `json:"sum_ns"`
}

// bucket returns d's bucket index. Below 32 ns the index is d itself; above,
// the top five bits of d select one of 16 sub-buckets of its octave.
func bucket(d time.Duration) int {
	v := max(int64(d), 0)
	if v >= 1<<40 {
		return buckets - 1
	}
	shift := max(bits.Len64(uint64(v))-5, 0)
	return shift*16 + int(v>>shift)
}

// upper returns the largest duration in bucket i.
func upper(i int) time.Duration {
	shift := max(i/16-1, 0)
	return time.Duration((int64(i-shift*16)+1)<<shift - 1)
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	atomic.AddInt64(&h.Counts[bucket(d)], 1)
	atomic.AddInt64(&h.SumNs, int64(d))
}

// Snapshot returns a copy of h that concurrent Records do not touch.
func (h *Histogram) Snapshot() Histogram {
	var s Histogram
	for i := range h.Counts {
		s.Counts[i] = atomic.LoadInt64(&h.Counts[i])
	}
	s.SumNs = atomic.LoadInt64(&h.SumNs)
	return s
}

// Add merges o into h: the result is the histogram of both sets of
// observations.
func (h *Histogram) Add(o *Histogram) {
	for i, n := range o.Counts {
		h.Counts[i] += n
	}
	h.SumNs += o.SumNs
}

// Sub removes o from h. With o an earlier snapshot of the same histogram,
// the result holds exactly the observations recorded in between.
func (h *Histogram) Sub(o *Histogram) {
	for i, n := range o.Counts {
		h.Counts[i] -= n
	}
	h.SumNs -= o.SumNs
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Mean returns the exact mean observation (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.SumNs / n)
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) as the
// upper bound of the bucket holding it, or 0 when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(p*float64(n)/100)), 1)
	var seen int64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			return upper(i)
		}
	}
	return upper(buckets - 1)
}

// Max returns the upper bound of the highest occupied bucket.
func (h *Histogram) Max() time.Duration { return h.Percentile(100) }
