package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpd/httpclient"
)

// requestTimeout bounds one interaction; a failed interaction is counted at
// this latency in the percentiles, so a failure can never read as fast.
const requestTimeout = 5 * time.Second

// sample is one issued interaction.
type sample struct {
	Inter int
	OK    bool
	Lat   time.Duration // send -> full body read
	// Failures only: the status that came back (0 for a transport error)
	// and a line saying what did.
	Status int
	Why    string
}

// pageOK is the per-response failure rule: anything but a 200 whose body
// ends with the closing </html> is a failure (transport errors never get
// this far).
func pageOK(status int, body []byte) bool {
	return status == 200 && bytes.HasSuffix(bytes.TrimRight(body, "\r\n "), []byte("</html>"))
}

// issue sends one interaction over hc and times it.
func issue(hc *httpclient.Client, r request) sample {
	t0 := time.Now()
	resp, err := hc.Do(r.Method, r.Path, r.ContentType, []byte(r.Body))
	s := sample{Inter: r.Inter, Lat: time.Since(t0)}
	switch {
	case err != nil:
		s.Why = fmt.Sprintf("%s %s: %v", r.Method, r.Path, err)
	case !pageOK(resp.Status, resp.Body):
		s.Status = resp.Status
		s.Why = fmt.Sprintf("%s %s: status %d, body %.120q", r.Method, r.Path, resp.Status, resp.Body)
	default:
		s.OK = true
		return s
	}
	s.Lat = requestTimeout
	return s
}

// loader is the closed loop's client side: conns keep-alive connections,
// each with its cookie jar (the bookstore's cart lives in its session), one
// goroutine each while a pass runs.
type loader struct {
	st      *stream
	clients []*httpclient.Client
}

func newLoader(addr string, st *stream, conns int) *loader {
	l := &loader{st: st}
	for k := 0; k < conns; k++ {
		l.clients = append(l.clients, httpclient.New(addr, requestTimeout))
	}
	return l
}

func (l *loader) close() {
	for _, hc := range l.clients {
		hc.Close()
	}
}

// run drives one pass: zero think time, every connection taking the
// stream's next request as soon as its previous reply is fully read. The
// pass ends after maxRequests have been issued (if > 0) or once dur has
// elapsed (if > 0); requests in flight at that moment complete and are
// returned. elapsed runs to the last completion.
func (l *loader) run(maxRequests int, dur time.Duration) (samples []sample, elapsed time.Duration) {
	var issued atomic.Int64
	perConn := make([][]sample, len(l.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for k, hc := range l.clients {
		wg.Add(1)
		go func(k int, hc *httpclient.Client) {
			defer wg.Done()
			for {
				if dur > 0 && time.Since(start) >= dur {
					return
				}
				if maxRequests > 0 && issued.Add(1) > int64(maxRequests) {
					return
				}
				perConn[k] = append(perConn[k], issue(hc, l.st.next()))
			}
		}(k, hc)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, s := range perConn {
		samples = append(samples, s...)
	}
	return samples, elapsed
}

func sortDur(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the two middle ones for an even
// count), or 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// slice is one of the measured pass's equal parts.
type slice struct {
	Samples []sample
	Elapsed time.Duration // to the last completion
	CPU     time.Duration // process user+sys over the slice
}

// passStats are the loader's view of one measured pass. Every timing figure
// is computed per slice and is the median of the slices, as timed.
type passStats struct {
	Attempted          int
	SliceSamples       int // median samples per slice
	WriteSamples       int // median write samples per slice
	IPS, P50, P99      float64
	CPUPerOp           float64 // ms
	WriteP50, WriteP95 float64 // ms
	P999               float64 // ms, whole pass
	SliceSpreadPct     float64 // (max - min) of the slices' IPS over their median
	// OKByInter / FailedByInter count interactions per interaction index —
	// the write-accounting check compares them with row-count deltas.
	OKByInter, FailedByInter map[int]int
	Failures                 []sample // the failed interactions
}

// summarize computes the pass's figures from its slices.
func summarize(slices []slice, isWrite func(inter int) bool) passStats {
	ps := passStats{OKByInter: make(map[int]int), FailedByInter: make(map[int]int)}
	var ips, p50, p99, cpu, wp50, wp95, n, wn []float64
	var whole []time.Duration
	for _, sl := range slices {
		var all, writes []time.Duration
		ok := 0
		for _, s := range sl.Samples {
			if s.OK {
				ok++
				ps.OKByInter[s.Inter]++
			} else {
				ps.FailedByInter[s.Inter]++
				ps.Failures = append(ps.Failures, s)
			}
			all = append(all, s.Lat)
			if isWrite(s.Inter) {
				writes = append(writes, s.Lat)
			}
		}
		ps.Attempted += len(all)
		whole = append(whole, all...)
		sortDur(all)
		sortDur(writes)
		ips = append(ips, ratio(float64(ok), sl.Elapsed.Seconds()))
		p50 = append(p50, ms(percentile(all, 50)))
		p99 = append(p99, ms(percentile(all, 99)))
		cpu = append(cpu, ratio(ms(sl.CPU), float64(len(all))))
		wp50 = append(wp50, ms(percentile(writes, 50)))
		wp95 = append(wp95, ms(percentile(writes, 95)))
		n = append(n, float64(len(all)))
		wn = append(wn, float64(len(writes)))
	}
	ps.IPS, ps.P50, ps.P99, ps.CPUPerOp = median(ips), median(p50), median(p99), median(cpu)
	ps.WriteP50, ps.WriteP95 = median(wp50), median(wp95)
	ps.SliceSamples, ps.WriteSamples = int(median(n)), int(median(wn))
	sortDur(whole)
	ps.P999 = ms(percentile(whole, 99.9))
	if len(ips) > 0 && ps.IPS > 0 {
		sort.Float64s(ips)
		ps.SliceSpreadPct = (ips[len(ips)-1] - ips[0]) / ps.IPS * 100
	}
	return ps
}
