// Command bench is the repository's benchmark: five closed-loop workloads
// over the real multi-tier stack at DefaultScale, four end-to-end metrics
// with regression bounds, and a per-layer trace (in-run counters plus a
// ladder of probes). BENCHMARK.json at the repository root declares the
// command, workloads and metrics; README.md in this directory explains
// every choice.
//
// The stack is assembled in this process with core.Start — the tiers talk
// to each other over loopback TCP — and driven from this process by the
// load generator in loadgen.go.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// options are one run's settings.
type options struct {
	Seed    int64
	Seconds float64 // measured pass length
	Trace   bool
	// Scale multiplies the measured seconds, the warm-up and traced
	// request counts and the probe budget; tests smoke-run at 0.01.
	Scale  float64
	TmpDir string    // parent of the WAL data directories
	OutDir string    // where trace files go
	Log    io.Writer // the human-readable report
}

// tracedRequests is the traced pass's size at scale 1: this many traced
// requests interleaved with as many untraced ones.
const tracedRequests = 2000

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, which is what keeps two sets of runs within its bound of each
// other. A traced run reports no setup_s and sets up once.
const setupRuns = 3

// result is one workload run. The driver's line carries EndToEnd with
// -trace 0 and PerLayer with -trace 1.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer"`
	Problems  []string  `json:"problems,omitempty"`
}

// session is one assembled, warmed-up stack with its request stream.
type session struct {
	lab     *core.Lab
	names   []string // the profile's interaction names, by index
	st      *stream
	load    *loader
	dataDir string
	took    time.Duration
	failed  []sample // every failed interaction so far, the warm-up's included
}

func (s *session) close() {
	if s.load != nil {
		s.load.close()
	}
	s.lab.Close()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// unexcused returns a line for every failed interaction that makes a run
// incorrect — which is every one, on every workload, but for the one failure
// the seed's stack is known to produce: the interaction named lockAbort
// answering 500, as long as the database tier counted at least as many
// lock-wait aborts as there were such answers. An excused failure is still
// reported in failed and fail_frac and excluded from ips.
func unexcused(failed []sample, names []string, lockAbort string, lockAborts int64) []string {
	var bad []string
	excused := int64(0)
	for _, smp := range failed {
		if names[smp.Inter] == lockAbort && smp.Status == 500 {
			excused++
		} else {
			bad = append(bad, "failed interaction: "+smp.Why)
		}
	}
	if excused > lockAborts {
		bad = append(bad, fmt.Sprintf("%d %s answered 500 but the database counts %d lock-wait aborts", excused, lockAbort, lockAborts))
	}
	return bad
}

// unexcused applies the rule to everything the session's stack was sent.
func (s *session) unexcused(spec *workloadSpec) []string {
	var lockAborts int64
	if db := s.lab.Telemetry().Tier("db"); db != nil {
		lockAborts = db.DeadlockTimeouts
	}
	return unexcused(s.failed, s.names, spec.LockAbort, lockAborts)
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// setup is what setup_s times: core.Start (population included), the
// generation of the warm-up's requests, and the warm-up pass.
func setup(spec *workloadSpec, o options) (s *session, err error) {
	t0 := time.Now()
	s = &session{}
	cfg := spec.Config
	if spec.WAL {
		if err := os.MkdirAll(o.TmpDir, 0o755); err != nil {
			return nil, err
		}
		if s.dataDir, err = os.MkdirTemp(o.TmpDir, "wal-"); err != nil {
			return nil, err
		}
		cfg.DBDataDir = s.dataDir
	}
	if s.lab, err = core.Start(cfg); err != nil {
		if s.dataDir != "" {
			os.RemoveAll(s.dataDir)
		}
		return nil, err
	}
	if s.st, err = newStream(s.lab.Profile(), spec.Mix, o.Seed); err != nil {
		s.close()
		return nil, err
	}
	for _, in := range s.lab.Profile().Interactions {
		s.names = append(s.names, in.Name)
	}
	warm := scaled(spec.Warm, o.Scale)
	s.st.reserve(warm)
	s.load = newLoader(s.lab.WebAddr(), s.st, connections)
	warmed, _ := s.load.run(warm, 0)
	for _, smp := range warmed {
		if !smp.OK {
			s.failed = append(s.failed, smp)
		}
	}
	s.took = time.Since(t0)
	return s, nil
}

// runWorkload runs one workload once.
func runWorkload(spec *workloadSpec, o options) (*result, error) {
	res := &result{Workload: spec.Name, Seed: o.Seed, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	problem := func(format string, args ...any) {
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	cfg := spec.Config
	fmt.Fprintf(o.Log, "== %s: %s/%s, %d shard(s) x %d replica(s), %d app backend(s), mix %s, seed %d\n",
		spec.Name, cfg.Arch, cfg.Benchmark, max(1, cfg.DBShards), max(1, cfg.DBReplicas), max(1, cfg.AppReplicas), spec.Mix, o.Seed)
	fmt.Fprintf(o.Log, "   closed loop, %d connections, zero think time; tiers in this process, talking over loopback TCP\n", connections)
	if cfg.PageCache > 0 {
		fmt.Fprintf(o.Log, "   page cache %d entries, query cache %d entries; the mix's parameterised pages span ~13000 distinct URLs at DefaultScale (~50x the page cache), the parameterless ones fit\n",
			cfg.PageCache, cfg.DBQueryCache)
	}

	// Set-up, several times; the last stack is the one measured.
	setups := setupRuns
	if o.Trace {
		setups = 1
	}
	var s *session
	var took []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			for _, line := range s.unexcused(spec) {
				problem("set-up %d: %s", i, line)
			}
			s.close()
		}
		var err error
		if s, err = setup(spec, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, s.took.Seconds())
	}
	defer s.close()
	lab, names := s.lab, s.names
	isWrite := func(inter int) bool { return writeInteractions[names[inter]] }

	rules := writeRules[cfg.Benchmark]
	rowsBefore, err := rowCounts(lab, rules)
	if err != nil {
		return nil, err
	}

	// The measured pass: equal slices, each with twice the requests it is
	// expected to consume generated before its clock starts, and a burst of
	// the host probe before, between and after them (hostprobe.go). Earlier
	// set-ups' stacks are garbage by now; hand their memory back first so
	// rss_mb is this stack's.
	probe, err := newHostProbe()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	defer probe.close()
	debug.FreeOSMemory()
	width := time.Duration(o.Seconds * o.Scale * float64(time.Second) / slices)
	parts := make([]slice, slices)
	before := snapshot(lab)
	loads := scaled(probeLoads, o.Scale)
	memlat := []float64{probe.burst(loads)}
	for k := range parts {
		s.st.reserve(2 * int(float64(spec.EstIPS)*width.Seconds()))
		c0 := cpuTime()
		parts[k].Samples, parts[k].Elapsed = s.load.run(0, width)
		parts[k].CPU = cpuTime() - c0
		memlat = append(memlat, probe.burst(loads))
	}
	after := snapshot(lab)
	probe.close()
	rss := rssMB()
	speed := hostSpeed(memlat)
	ps := summarize(parts, isWrite)
	s.failed = append(s.failed, ps.Failures...)
	res.Attempted, res.Failed = ps.Attempted, len(ps.Failures)

	e := func(name string, v float64) { res.EndToEnd.set(endToEnd, name, v) }
	e("setup_s", median(took))
	e("ips", ps.IPS*speed)
	e("cpu_ms_per_op", ps.CPUPerOp/speed)
	e("rss_mb", rss)
	p := func(name string, v float64) { res.PerLayer.set(perLayer, name, v) }
	p("p50_ms", ps.P50)
	p("p99_ms", ps.P99)
	p("write_p50_ms", ps.WriteP50)
	p("write_p95_ms", ps.WriteP95)
	p("fail_frac", ratio(float64(res.Failed), float64(ps.Attempted)))
	p("host.memlat_ns", speed*refMemLatNs)
	p("loadgen.p999_ms", ps.P999)
	p("loadgen.slice_spread_pct", ps.SliceSpreadPct)
	layerCounts(res.PerLayer, before, after, ps.Attempted)

	// Output checks, outside the timed range.
	okByName, failedByName := make(map[string]int), make(map[string]int)
	for inter, n := range ps.OKByInter {
		okByName[names[inter]] += n
	}
	for inter, n := range ps.FailedByInter {
		failedByName[names[inter]] += n
	}
	rowsAfter, err := rowCounts(lab, rules)
	if err != nil {
		return nil, err
	}
	for _, line := range checkWrites(rules, rowsBefore, rowsAfter, okByName, failedByName) {
		problem("write accounting: %s", line)
	}

	if o.Trace {
		tr := newTracer()
		n := scaled(tracedRequests, o.Scale)
		s.st.reserve(2 * n)
		rows, overhead, failed := tracedPass(tr, lab.WebAddr(), s.st, names, n)
		s.failed = append(s.failed, failed...)
		p("trace.overhead_pct", overhead)
		lad := &ladder{tr: tr, m: res.PerLayer, budget: time.Duration(float64(probeBudget) * o.Scale)}
		if err := runLadder(lad, spec, lab, o.Seed, o.TmpDir); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		path, err := writeTrace(o.OutDir, traceFile{Workload: spec.Name, Seed: o.Seed, Interactions: rows, Spans: tr.spans})
		if err != nil {
			return nil, err
		}
		printInteractions(o.Log, rows)
		fmt.Fprintf(o.Log, "   %d spans written to %s\n", len(tr.spans), path)
		res.PerLayer.fillZero(perLayer)
	}

	if cfg.DBReplicas > 1 {
		bad, err := checkReplicas(lab, max(1, cfg.DBShards), cfg.DBReplicas)
		if err != nil {
			return nil, err
		}
		for _, line := range bad {
			problem("%s", line)
		}
	}
	if spec.WAL {
		bad, err := checkDurable(lab)
		if err != nil {
			return nil, fmt.Errorf("crash-recovery check: %w", err)
		}
		for _, line := range bad {
			problem("%s", line)
		}
		fmt.Fprintf(o.Log, "   crash-recovery check ran: process-level crash, the OS page cache survives it\n")
	}
	for _, smp := range s.failed {
		fmt.Fprintf(o.Log, "   failed interaction: %s\n", smp.Why)
	}
	for _, line := range s.unexcused(spec) {
		problem("%s", line)
	}
	res.Correct = len(res.Problems) == 0

	printMetrics(o.Log, "end-to-end", endToEnd, res.EndToEnd)
	fmt.Fprintf(o.Log, "   samples: %d attempted, %d failed, %d per slice (%d writes), %d slices, %.1f s\n",
		ps.Attempted, res.Failed, ps.SliceSamples, ps.WriteSamples, slices, (slices * width).Seconds())
	printMetrics(o.Log, "per-layer", perLayer, res.PerLayer)
	for _, line := range res.Problems {
		fmt.Fprintf(o.Log, "   CHECK FAILED: %s\n", line)
	}
	return res, nil
}

func printMetrics(w io.Writer, title string, defs []metricDef, m metricSet) {
	fmt.Fprintf(w, "   -- %s\n", title)
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(w, "   %-38s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

func printInteractions(w io.Writer, rows []interRow) {
	fmt.Fprintf(w, "   -- traced pass by interaction\n")
	for _, r := range rows {
		fmt.Fprintf(w, "   %-26s n=%-5d p50 %8.3f ms  %5.1f %% of wall time\n", r.Name, r.Count, r.P50Ms, r.SharePct)
	}
}

// driverLine is the last line of standard output: the contract's JSON
// object, with the metric set the -trace value selects.
func driverLine(r *result, trace bool) string {
	m := r.EndToEnd
	if trace {
		m = r.PerLayer
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m,
	})
	if err != nil {
		panic(err) // plain data
	}
	return string(b)
}

// selfCheck is -repeat: it runs each workload n times in fresh processes,
// seeds seed, seed+1, ..., and reports each end-to-end metric's minimum,
// median, maximum and spread — the distance between the first and third
// quartile as a share of the median (max-min below four runs). It fails if
// a spread exceeds the metric's bound; setup_s is reported, not judged.
func selfCheck(specs []*workloadSpec, n int, o options) error {
	trace := 0
	if o.Trace {
		trace = 1
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var over []string
	for _, spec := range specs {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "-workload", spec.Name, "-seed", fmt.Sprint(o.Seed+int64(i)),
				"-seconds", fmt.Sprint(o.Seconds), "-scale", fmt.Sprint(o.Scale), "-trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				os.Stderr.Write(out)
				return fmt.Errorf("%s run %d: %w", spec.Name, i, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line struct {
				Correct bool
				Metrics metricSet
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s run %d: %w", spec.Name, i, err)
			}
			for name, m := range line.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(o.Log, "== %s, %d runs\n   %-38s %12s %12s %12s %9s %7s\n", spec.Name, n, "metric", "min", "median", "max", "spread", "bound")
		defs := endToEnd
		if o.Trace {
			defs = perLayer
		}
		for _, d := range defs {
			v := append([]float64(nil), values[d.Name]...)
			sort.Float64s(v)
			sp := spread(v)
			fmt.Fprintf(o.Log, "   %-38s %12.4f %12.4f %12.4f %8.1f%% %6.0f%%   in run order: %.4g\n",
				d.Name, v[0], median(v), v[len(v)-1], sp*100, d.Bound*100, values[d.Name])
			if d.Bound > 0 && d.Name != "setup_s" && sp > d.Bound {
				over = append(over, fmt.Sprintf("%s %s: spread %.1f%% over bound %.0f%%", spec.Name, d.Name, sp*100, d.Bound*100))
			}
		}
	}
	if len(over) > 0 {
		return errors.New("spread over bound:\n  " + strings.Join(over, "\n  "))
	}
	return nil
}

// spread is the interquartile range of sorted as a share of its median,
// with the quartiles Python's statistics.quantiles(v, n=4) gives (the
// exclusive method); below four values, the full range.
func spread(sorted []float64) float64 {
	n := len(sorted)
	med := median(sorted)
	if n == 0 || med == 0 {
		return 0
	}
	if n < 4 {
		return (sorted[n-1] - sorted[0]) / med
	}
	q := func(k int) float64 { // k-th quartile, 1 or 3
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(pos)
		frac := pos - float64(lo)
		lo = min(max(lo, 1), n-1)
		return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
	}
	return (q(3) - q(1)) / med
}

func main() {
	var o options
	workload := flag.String("workload", "all", "workload name, or all")
	flag.Int64Var(&o.Seed, "seed", 1, "request-stream seed (the population always uses seed 1)")
	flag.Float64Var(&o.Seconds, "seconds", 10, "length of the measured pass")
	trace := flag.Int("trace", 0, "1: also run the traced pass and the ladder probes, and report the per-layer metrics")
	flag.Float64Var(&o.Scale, "scale", 1, "multiplies the measured seconds, request counts and probe budgets")
	repeat := flag.Int("repeat", 1, "above 1: run each workload this many times in fresh processes on consecutive seeds and check the spreads against the bounds")
	jsonOut := flag.String("json", "", "also write the full results to this file")
	flag.Parse()
	if flag.NArg() > 0 || o.Seconds <= 0 || o.Scale <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o.Trace = *trace == 1
	o.TmpDir = filepath.Join("bench", ".build", "tmp")
	o.OutDir = filepath.Join("bench", "out")
	o.Log = os.Stdout

	var specs []*workloadSpec
	if *workload == "all" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else if spec := findWorkload(*workload); spec != nil {
		specs = append(specs, spec)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	if *repeat > 1 {
		if err := selfCheck(specs, *repeat, o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Fprintf(o.Log, "bench: %d CPUs, GOMAXPROCS %d, %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var results []*result
	correct := true
	for _, spec := range specs {
		res, err := runWorkload(spec, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", spec.Name, err)
			os.Exit(1)
		}
		results = append(results, res)
		correct = correct && res.Correct
		fmt.Println(driverLine(res, o.Trace))
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !correct {
		os.Exit(1)
	}
}
