package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/httpd/httpclient"
)

// span is one timed call into a layer's public entry point. Spans are
// recorded from this package only, around the calls; spans inside the
// tiers are a later change and must then agree with this ladder.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`          // 0: a root
	Cause  string `json:"cause,omitempty"` // the rung above: whose time contains this call's
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. One goroutine uses it.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, cause string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Cause: cause,
		Start: int64(time.Since(t.t0))})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// interRow is one line of the per-interaction table: where the traced
// pass's wall time went, by interaction name.
type interRow struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	P50Ms    float64 `json:"p50_ms"`
	SharePct float64 `json:"share_of_wall_pct"`
}

// minPaired is how many samples an interaction needs in both halves of the
// traced pass before its medians are compared.
const minPaired = 20

// tracedPass issues 2*n fresh requests over one connection, alternating a
// traced request (a root span named after its interaction) with an
// untraced one, so both halves see the same stack state. It returns the
// per-interaction table of the traced half and the tracing overhead: the
// traced median latency over the untraced one, per interaction (the mix
// is bimodal, so a median across interactions would compare page types,
// not tracing), averaged by sample count, in percent — and the
// interactions that failed.
func tracedPass(tr *tracer, addr string, st *stream, names []string, n int) (rows []interRow, overheadPct float64, failed []sample) {
	hc := httpclient.New(addr, requestTimeout)
	defer hc.Close()
	traced := make(map[int][]time.Duration)
	plain := make(map[int][]time.Duration)
	var total time.Duration
	for i := 0; i < 2*n; i++ {
		r := st.next()
		if i%2 == 1 {
			s := issue(hc, r)
			if !s.OK {
				failed = append(failed, s)
			}
			plain[r.Inter] = append(plain[r.Inter], s.Lat)
			continue
		}
		id := tr.begin(names[r.Inter], 0, "")
		s := issue(hc, r)
		d := tr.end(id)
		if !s.OK {
			failed = append(failed, s)
		}
		traced[r.Inter] = append(traced[r.Inter], d)
		total += d
	}
	var weighted, weight float64
	for inter, lats := range traced {
		sortDur(lats)
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		rows = append(rows, interRow{Name: names[inter], Count: len(lats),
			P50Ms: ms(percentile(lats, 50)), SharePct: ratio(float64(sum), float64(total)) * 100})
		if pl := plain[inter]; len(lats) >= minPaired && len(pl) >= minPaired {
			sortDur(pl)
			w := float64(len(lats) + len(pl))
			weighted += w * (float64(percentile(lats, 50))/float64(percentile(pl, 50)) - 1)
			weight += w
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SharePct > rows[j].SharePct })
	return rows, ratio(weighted, weight) * 100, failed
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload     string     `json:"workload"`
	Seed         int64      `json:"seed"`
	Interactions []interRow `json:"interactions"`
	Spans        []span     `json:"spans"`
}

func writeTrace(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
