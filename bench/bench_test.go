package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/datagen"
	"repro/internal/httpd"
	"repro/internal/httpd/httpclient"
	"repro/internal/workload"
)

func testProfiles() map[string]*workload.Profile {
	return map[string]*workload.Profile{
		"auction":   auction.Profile(auction.DefaultScale()),
		"bookstore": bookstore.Profile(bookstore.DefaultScale()),
	}
}

// Two streams from one seed are identical request for request; another
// seed gives another stream.
func TestStreamSeedDeterministic(t *testing.T) {
	for name, p := range testProfiles() {
		for mix := range p.Mixes {
			gen := func(seed int64) []request {
				s, err := newStream(p, mix, seed)
				if err != nil {
					t.Fatal(err)
				}
				s.generate(3000)
				for i := 0; i < 5000; i++ { // crosses into the lazily grown part
					s.next()
				}
				return s.reqs
			}
			a, b, c := gen(7), gen(7), gen(8)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: same seed, different streams", name, mix)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s/%s: different seeds, same stream", name, mix)
			}
		}
	}
}

// The stream's interaction frequencies follow the mix: chi-squared against
// Profile.Mixes stays under the 99.9 % critical value, and interactions
// the mix gives weight 0 never appear.
func TestStreamMixFaithful(t *testing.T) {
	const n = 50000
	for name, p := range testProfiles() {
		for mix, weights := range p.Mixes {
			s, err := newStream(p, mix, 3)
			if err != nil {
				t.Fatal(err)
			}
			s.generate(n)
			counts := make([]float64, len(weights))
			for _, r := range s.reqs {
				counts[r.Inter]++
			}
			var chi2 float64
			dof := -1
			for i, w := range weights {
				if w == 0 {
					if counts[i] != 0 {
						t.Errorf("%s/%s: %s has weight 0 but was drawn", name, mix, p.Interactions[i].Name)
					}
					continue
				}
				exp := w * n
				chi2 += (counts[i] - exp) * (counts[i] - exp) / exp
				dof++
			}
			// Wilson-Hilferty approximation of the chi-squared 99.9 % quantile.
			k := float64(dof)
			crit := k * math.Pow(1-2/(9*k)+3.09*math.Sqrt(2/(9*k)), 3)
			if chi2 > crit {
				t.Errorf("%s/%s: chi2 %.1f over %.1f (%d dof)", name, mix, chi2, crit, dof)
			}
		}
	}
}

// A unique key is never generated twice, even with other parameters
// differing: a profile that can only draw four nicknames still yields
// distinct registrations (and would loop forever on a fifth).
func TestStreamUniqueKeys(t *testing.T) {
	p := &workload.Profile{Name: "tiny", Interactions: []workload.Interaction{{Name: "registeruser",
		Build: func(g *datagen.Gen) workload.Request {
			return workload.Request{Method: "GET", Path: fmt.Sprintf("/r?nickname=n%d&region=%d", g.Intn(4), g.Intn(1000))}
		}}}, Mixes: map[string][]float64{"m": {1}}}
	s, err := newStream(p, "m", 1)
	if err != nil {
		t.Fatal(err)
	}
	s.generate(4)
	seen := make(map[string]bool)
	for _, r := range s.reqs {
		seen[uniqueKey(r.Request, "nickname")] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 registrations used %d distinct nicknames", len(seen))
	}
	form := workload.Request{Method: "POST", Path: "/reg", Body: "uname=ux&passwd=pw"}
	if got := uniqueKey(form, "uname"); got != "ux" {
		t.Errorf("form key = %q, want ux", got)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(d[:3], 50); got != 2 {
		t.Errorf("percentile(1..3, 50) = %d, want 2", got)
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// summarize reports the median of the per-slice values, not the value over
// the whole pass: one slow slice does not move the result.
func TestSummarizeMedianOfSlices(t *testing.T) {
	var parts []slice
	// Slices 0-3: 100 reads at 1 ms and 10 writes at 2 ms in 1 s each, 50 ms
	// of CPU. Slice 4: 10 reads at 50 ms. One failure in slice 1.
	for k := 0; k < 4; k++ {
		sl := slice{Elapsed: time.Second, CPU: 55 * time.Millisecond}
		for i := 0; i < 100; i++ {
			sl.Samples = append(sl.Samples, sample{Inter: 0, OK: true, Lat: time.Millisecond})
		}
		for i := 0; i < 10; i++ {
			sl.Samples = append(sl.Samples, sample{Inter: 1, OK: true, Lat: 2 * time.Millisecond})
		}
		parts = append(parts, sl)
	}
	slow := slice{Elapsed: time.Second, CPU: 55 * time.Millisecond}
	for i := 0; i < 10; i++ {
		slow.Samples = append(slow.Samples, sample{Inter: 0, OK: true, Lat: 50 * time.Millisecond})
	}
	parts = append(parts, slow)
	parts[1].Samples[0] = sample{Inter: 0, OK: false, Lat: requestTimeout, Why: "boom"}
	isWrite := func(inter int) bool { return inter == 1 }

	ps := summarize(parts, isWrite)
	if ps.Attempted != 450 || len(ps.Failures) != 1 || ps.Failures[0].Why != "boom" {
		t.Errorf("attempted %d failed %v, want 450 and the one that went boom", ps.Attempted, ps.Failures)
	}
	if ps.IPS != 110 {
		t.Errorf("ips %v, want 110 (the median slice; the failure is not counted)", ps.IPS)
	}
	if ps.P50 != 1 || ps.WriteP50 != 2 || ps.WriteP95 != 2 {
		t.Errorf("p50 %v write p50 %v p95 %v, want 1, 2, 2", ps.P50, ps.WriteP50, ps.WriteP95)
	}
	if ps.P99 != 2 {
		t.Errorf("p99 %v, want 2: the failure's timeout latency moves only its own slice", ps.P99)
	}
	if ps.P999 != ms(requestTimeout) {
		t.Errorf("p999 %v, want the timeout: a failure counts at the timeout", ps.P999)
	}
	if ps.CPUPerOp != 0.5 {
		t.Errorf("cpu per op %v ms, want 0.5", ps.CPUPerOp)
	}
	if ps.OKByInter[0] != 409 || ps.OKByInter[1] != 40 || ps.FailedByInter[0] != 1 {
		t.Errorf("by interaction: ok %v failed %v", ps.OKByInter, ps.FailedByInter)
	}
	if ps.SliceSamples != 110 || ps.WriteSamples != 10 {
		t.Errorf("samples per slice %d, writes %d, want 110 and 10", ps.SliceSamples, ps.WriteSamples)
	}
}

// The host probe walks a single cycle through all its entries and reads a
// plausible latency.
func TestHostProbe(t *testing.T) {
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	at := uint32(0)
	for i := 0; i < 1000; i++ {
		at = binary.LittleEndian.Uint32(p.mem[at*4:])
		if at == 0 {
			t.Fatalf("cycle closed after %d steps, want %d", i+1, probeEntries)
		}
	}
	if ns := p.burst(100000); ns < 1 || ns > 5000 {
		t.Errorf("burst reads %v ns per load", ns)
	}
}

// The failure rule counts a 500, a truncated body, an empty body and a
// timeout, charges each the timeout latency and keeps the status.
func TestFailureRule(t *testing.T) {
	mux := httpd.NewMux()
	page := func(status int, body string) func(*httpd.Request) (*httpd.Response, error) {
		return func(*httpd.Request) (*httpd.Response, error) {
			resp := httpd.NewResponse()
			resp.Status = status
			resp.WriteString(body)
			return resp, nil
		}
	}
	mux.HandleFunc("/ok", page(200, "<html><body>fine</body></html>\n"))
	mux.HandleFunc("/500", page(500, "<html><body>boom</body></html>\n"))
	mux.HandleFunc("/trunc", page(200, "<html><body>cut off"))
	mux.HandleFunc("/empty", page(200, ""))
	mux.HandleFunc("/slow", func(*httpd.Request) (*httpd.Response, error) {
		time.Sleep(300 * time.Millisecond)
		return page(200, "<html></html>")(nil)
	})
	srv := httpd.NewServer(mux, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, want := range map[string]bool{"/ok": true, "/500": false, "/trunc": false, "/empty": false, "/slow": false} {
		hc := httpclient.New(addr.String(), 50*time.Millisecond)
		s := issue(hc, request{Request: workload.Request{Method: "GET", Path: path}})
		hc.Close()
		if s.OK != want {
			t.Errorf("%s: ok=%v, want %v", path, s.OK, want)
		}
		if !want && s.Lat != requestTimeout {
			t.Errorf("%s: a failure is charged %v, want the timeout %v", path, s.Lat, requestTimeout)
		}
		if wantStatus := map[string]int{"/500": 500, "/trunc": 200, "/empty": 200}[path]; s.Status != wantStatus {
			t.Errorf("%s: status %d kept, want %d", path, s.Status, wantStatus)
		}
	}
}

// Every failure makes a run incorrect, but the named interaction answering
// 500 while the database counted a lock-wait abort for each such answer.
func TestUnexcused(t *testing.T) {
	names := []string{"home", "buyconfirm"}
	abort := sample{Inter: 1, Status: 500, Why: "buyconfirm 500"}
	for _, c := range []struct {
		what       string
		failed     []sample
		lockAbort  string
		lockAborts int64
		want       int
	}{
		{"no failures", nil, "buyconfirm", 0, 0},
		{"the known abort, counted by the database", []sample{abort}, "buyconfirm", 1, 0},
		{"the same answer on a workload that excuses nothing", []sample{abort}, "", 1, 1},
		{"a 500 the database did not count as a lock-wait abort", []sample{abort, abort}, "buyconfirm", 1, 1},
		{"another interaction's 500", []sample{{Inter: 0, Status: 500}}, "buyconfirm", 1, 1},
		{"buyconfirm cut short, not aborted", []sample{{Inter: 1, Status: 200}}, "buyconfirm", 1, 1},
		{"buyconfirm timing out", []sample{{Inter: 1}}, "buyconfirm", 1, 1},
	} {
		if bad := unexcused(c.failed, names, c.lockAbort, c.lockAborts); len(bad) != c.want {
			t.Errorf("%s: %d problems %v, want %d", c.what, len(bad), bad, c.want)
		}
	}
}

func TestCheckWrites(t *testing.T) {
	rules := writeRules[workloads[0].Config.Benchmark] // bookstore
	before := map[string]int64{"orders": 10, "credit_info": 10, "order_line": 30, "customers": 5, "address": 5, "items": 500}
	after := map[string]int64{"orders": 13, "credit_info": 13, "order_line": 37, "customers": 7, "address": 7, "items": 500}
	ok := map[string]int{"buyconfirm": 3, "customerregistration": 2, "shoppingcart": 40, "adminconfirm": 4}
	if bad := checkWrites(rules, before, after, ok, nil); len(bad) != 0 {
		t.Errorf("consistent counts rejected: %v", bad)
	}
	// A failed buyconfirm may have committed or not: 3 or 4 new orders pass.
	ok["buyconfirm"] = 2
	if bad := checkWrites(rules, before, after, ok, map[string]int{"buyconfirm": 1}); len(bad) != 0 {
		t.Errorf("a failed interaction's possible commit rejected: %v", bad)
	}
	ok["buyconfirm"] = 3
	after["orders"], after["order_line"], after["items"] = 12, 32, 501
	if bad := checkWrites(rules, before, after, ok, nil); len(bad) != 3 {
		t.Errorf("want 3 mismatches (lost order, too few lines, items grew), got %v", bad)
	}
}

// spread reproduces Python's statistics.quantiles(v, n=4) on the driver's
// ten-run procedure.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got, want := spread([]float64{10, 11, 12}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want the full range %v", got, want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json declares exactly the workloads and metrics this package
// does, within the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q/%q differs from the package's %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q breaks the contract's limits", w.Name)
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d defined", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v differs from the package's %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") || seen[g.Name] {
				t.Errorf("%s %q breaks the contract's limits", kind, g.Name)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %q: bound present=%v, want %v", kind, g.Name, g.Bound != nil, bounded)
			} else if bounded && (*g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s %q: bound %v, package has %v", kind, g.Name, *g.Bound, w.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
	for _, w := range workloads {
		seen[w.Name] = true
	}
	if !seen["setup_s"] || decl.RunSeconds < 1 || decl.RunSeconds > 60 || len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("setup_s, run_seconds or paths missing or out of range")
	}
}

// One scaled-down traced run per workload: every check passes, every
// declared metric is reported exactly once with its unit, the idle layers
// read zero and the busy ones do not.
func TestSmokeEveryWorkload(t *testing.T) {
	busy := map[string][]string{
		"shop_php":         {"wire.stmts_per_op", "sqldb.exec_join_us", "app.point_page_us"},
		"bid_servlet_wal":  {"wal.fsyncs_per_op", "cluster.broadcasts_per_op", "wal.commit_1session_us", "ajp.roundtrip_1k_us"},
		"bid_ejb":          {"ejb.stmts_per_op", "rmi.call_us"},
		"browse_lb_cached": {"lb.page_hit_frac", "lb.pagecache_hit_us", "lb.pick_us"},
		"bid_sharded":      {"cluster.shard_scatter_per_op", "cluster.shard_single_frac"},
	}
	idle := map[string][]string{
		"shop_php":         {"wal.fsyncs_per_op", "ejb.stmts_per_op", "lb.page_hit_frac", "cluster.shard_scatter_per_op", "ajp.roundtrip_1k_us", "rmi.call_us"},
		"bid_servlet_wal":  {"ejb.stmts_per_op", "lb.page_hit_frac", "cluster.shard_scatter_per_op"},
		"bid_ejb":          {"wal.fsyncs_per_op", "lb.page_hit_frac", "cluster.shard_scatter_per_op"},
		"browse_lb_cached": {"wal.fsyncs_per_op", "ejb.stmts_per_op", "cluster.shard_scatter_per_op", "write_p50_ms"},
		"bid_sharded":      {"wal.fsyncs_per_op", "ejb.stmts_per_op", "lb.page_hit_frac"},
	}
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.Name, func(t *testing.T) {
			var log bytes.Buffer
			tmp := t.TempDir()
			res, err := runWorkload(spec, options{Seed: 1, Seconds: 10, Scale: 0.01, Trace: true,
				TmpDir: tmp, OutDir: tmp, Log: &log})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if entries, _ := os.ReadDir(tmp); len(entries) != 1 {
				t.Errorf("run left %d entries in its temp dir, want only the trace file", len(entries))
			}
			lines := strings.Split(log.String(), "\n")
			for _, set := range []struct {
				defs []metricDef
				got  metricSet
			}{{endToEnd, res.EndToEnd}, {perLayer, res.PerLayer}} {
				if len(set.got) != len(set.defs) {
					t.Errorf("%d metrics reported, %d declared", len(set.got), len(set.defs))
				}
				for _, d := range set.defs {
					m, ok := set.got[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s missing or with unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
					printed := 0
					for _, line := range lines {
						if f := strings.Fields(line); len(f) == 3 && f[0] == d.Name && f[2] == d.Unit {
							printed++
						}
					}
					if printed != 1 {
						t.Errorf("metric %s printed %d times, want once", d.Name, printed)
					}
				}
			}
			if res.EndToEnd["ips"].Value <= 0 || res.EndToEnd["setup_s"].Value <= 0 {
				t.Errorf("ips %v, setup_s %v: want both positive", res.EndToEnd["ips"].Value, res.EndToEnd["setup_s"].Value)
			}
			for _, name := range busy[spec.Name] {
				if res.PerLayer[name].Value == 0 {
					t.Errorf("%s reads 0 on the workload that exercises it", name)
				}
			}
			for _, name := range idle[spec.Name] {
				if res.PerLayer[name].Value != 0 {
					t.Errorf("%s reads %v on a workload that bypasses it", name, res.PerLayer[name].Value)
				}
			}
			for trace, want := range map[bool]int{true: len(perLayer), false: len(endToEnd)} {
				var line struct {
					Correct           *bool
					Attempted, Failed *int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(driverLine(res, trace)), &line); err != nil ||
					line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != want {
					t.Errorf("driver line (trace %v): %v, %d metrics, want %d", trace, err, len(line.Metrics), want)
				}
			}
		})
	}
}

// An untraced run — what the driver times — sets up setupRuns times, leaves
// nothing behind and reports every end-to-end metric above zero.
func TestSmokeUntraced(t *testing.T) {
	var log bytes.Buffer
	tmp := t.TempDir()
	res, err := runWorkload(findWorkload("browse_lb_cached"), options{Seed: 2, Seconds: 10, Scale: 0.01,
		TmpDir: tmp, OutDir: tmp, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
	}
	if entries, _ := os.ReadDir(tmp); len(entries) != 0 {
		t.Errorf("run left %d entries in its temp dir", len(entries))
	}
	if len(res.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics reported, %d declared", len(res.EndToEnd), len(endToEnd))
	}
	for name, m := range res.EndToEnd {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want above zero", name, m.Value)
		}
	}
}

func TestMetricSetRejectsUndeclared(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	metricSet{}.set(endToEnd, "no_such_metric", 1)
}
