package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
)

// fill gives every field of the struct v — embedded structs, int64 arrays
// and the struct behind a pointer included — a distinct non-zero value
// counting up from *next, and fails on a field kind it does not know: a new
// kind must be given an accumulate rule and a line here before it can ship.
func fill(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*next++
		switch {
		case f.Kind() == reflect.Int || f.Kind() == reflect.Int64:
			f.SetInt(*next)
		case f.Kind() == reflect.Float64:
			f.SetFloat(float64(*next))
		case f.Kind() == reflect.String:
			f.SetString(fmt.Sprint("s", *next))
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.Struct:
			fill(t, f, next)
		case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Int64:
			for j := 0; j < f.Len(); j++ {
				*next++
				f.Index(j).SetInt(*next)
			}
		case f.Kind() == reflect.Pointer && f.Type().Elem().Kind() == reflect.Struct:
			p := reflect.New(f.Type().Elem())
			fill(t, p.Elem(), next)
			f.Set(p)
		default:
			t.Fatalf("%s.%s has kind %s: teach accumulate and this test what to do with it",
				v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// filled returns a fully populated snapshot: one tier, one replica, one app
// backend, values counting up from seed.
func filled(t *testing.T, seed int64) *Snapshot {
	t.Helper()
	s := &Snapshot{Tiers: make([]Tier, 1), Replicas: make([]Replica, 1), AppBackends: make([]AppBackend, 1)}
	fill(t, reflect.ValueOf(&s.Tiers[0]).Elem(), &seed)
	fill(t, reflect.ValueOf(&s.Replicas[0]).Elem(), &seed)
	fill(t, reflect.ValueOf(&s.AppBackends[0]).Elem(), &seed)
	return s
}

// checkAccumulated walks got (the result of a += sign·b) against a and b by
// the rules accumulate documents: int64 counters moved by sign·b, gauges
// summed on Add and a's on a Delta, histograms a ± b bucket by bucket, bools
// (set on both sides) still set, ids and names still a's, the struct behind
// a pointer by the same rules on a copy of its own.
func checkAccumulated(t *testing.T, path string, got, a, b reflect.Value, sign int64) {
	t.Helper()
	for i := 0; i < got.NumField(); i++ {
		name := path + "." + got.Type().Field(i).Name
		g, av, bv := got.Field(i), a.Field(i), b.Field(i)
		switch {
		case g.Type() == gaugeType:
			want := av.Int()
			if sign > 0 {
				want += bv.Int()
			}
			if g.Int() != want {
				t.Errorf("%s = %d, want gauge %d", name, g.Int(), want)
			}
		case g.Type() == histogramType:
			gh, ah, bh := g.Interface().(stats.Histogram), av.Interface().(stats.Histogram), bv.Interface().(stats.Histogram)
			if gh.SumNs != ah.SumNs+sign*bh.SumNs {
				t.Errorf("%s time = %d, want %d%+d", name, gh.SumNs, ah.SumNs, sign*bh.SumNs)
			}
			for j := range gh.Counts {
				if gh.Counts[j] != ah.Counts[j]+sign*bh.Counts[j] {
					t.Errorf("%s bucket %d = %d, want %d%+d", name, j, gh.Counts[j], ah.Counts[j], sign*bh.Counts[j])
					break
				}
			}
		case g.Kind() == reflect.Int64:
			if want := av.Int() + sign*bv.Int(); g.Int() != want {
				t.Errorf("%s = %d, want counter %d%+d", name, g.Int(), av.Int(), sign*bv.Int())
			}
		case g.Kind() == reflect.Bool:
			if !g.Bool() {
				t.Errorf("%s cleared", name)
			}
		case g.Kind() == reflect.Int || g.Kind() == reflect.String:
			if !g.Equal(av) {
				t.Errorf("%s = %v, want the receiver's %v kept", name, g, av)
			}
		case g.Kind() == reflect.Struct:
			checkAccumulated(t, name, g, av, bv, sign)
		case g.Kind() == reflect.Pointer:
			if g.Pointer() == av.Pointer() {
				t.Errorf("%s still points at the input's value", name)
			}
			checkAccumulated(t, name, g.Elem(), av.Elem(), bv.Elem(), sign)
		default:
			t.Fatalf("%s has kind %s: no rule checked", name, g.Kind())
		}
	}
}

// TestAccumulateCoversEveryField populates every field of Tier, Replica,
// AppBackend and pool.Stats by reflection and holds Add and Delta to
// accumulate's rules field by field, so a counter added to any of the
// structs is summed and windowed without anyone writing a line for it — and
// a field of a kind the rules do not cover fails here instead of being
// skipped.
func TestAccumulateCoversEveryField(t *testing.T) {
	a, b := filled(t, 1000), filled(t, 100)
	// Delta pairs rows by name / id.
	b.Tiers[0].Name, b.Replicas[0].ID, b.AppBackends[0].ID = a.Tiers[0].Name, a.Replicas[0].ID, a.AppBackends[0].ID

	sum := filled(t, 1000)
	Add(&sum.Tiers[0], b.Tiers[0])
	Add(&sum.Replicas[0], b.Replicas[0])
	Add(&sum.AppBackends[0], b.AppBackends[0])
	for _, c := range []struct {
		name string
		got  *Snapshot
		sign int64
	}{{"Add", sum, +1}, {"Delta", a.Delta(b), -1}} {
		checkAccumulated(t, c.name+" Tier", reflect.ValueOf(c.got.Tiers[0]), reflect.ValueOf(a.Tiers[0]), reflect.ValueOf(b.Tiers[0]), c.sign)
		checkAccumulated(t, c.name+" Replica", reflect.ValueOf(c.got.Replicas[0]), reflect.ValueOf(a.Replicas[0]), reflect.ValueOf(b.Replicas[0]), c.sign)
		checkAccumulated(t, c.name+" AppBackend", reflect.ValueOf(c.got.AppBackends[0]), reflect.ValueOf(a.AppBackends[0]), reflect.ValueOf(b.AppBackends[0]), c.sign)
	}
	// A pool row on its own: how the owners fold several pools into one.
	pa, pb := *a.Tiers[0].Pool, *b.Tiers[0].Pool
	psum := pa
	Add(&psum, pb)
	checkAccumulated(t, "Add pool.Stats", reflect.ValueOf(psum), reflect.ValueOf(pa), reflect.ValueOf(pb), +1)

	if self := a.Delta(a).Tiers[0]; self.Broadcasts != 0 || self.Requests != 0 || self.Pool.Gets != 0 {
		t.Errorf("a snapshot's delta against itself keeps counters: %+v", self)
	}

	// Healthy ANDs on Add: two views of one replica merge healthy only when
	// both are. A Delta reports the current row's state, not the previous
	// one's, either way round.
	up := Replica{Healthy: true}
	Add(&up, Replica{Healthy: false})
	if up.Healthy {
		t.Error("Add of a healthy and an unhealthy replica row is healthy")
	}
	down := filled(t, 1000)
	down.Replicas[0].Healthy = false
	if down.Delta(a).Replicas[0].Healthy {
		t.Error("Delta took Healthy from the previous snapshot")
	}
	if !a.Delta(down).Replicas[0].Healthy {
		t.Error("Delta took the previous snapshot's unhealthy state")
	}
	// A row the other side has no pool for keeps its own.
	b.Tiers[0].Pool = nil
	if got := a.Delta(b).Tiers[0].Pool; got != a.Tiers[0].Pool {
		t.Errorf("Delta against a pool-less row replaced the pool: %+v", got)
	}
}

// TestStatusJSONKeysStable pins the /status key set of a tier, a replica
// and an app-backend object to the list the hand-declared structs produced
// before ClusterStats was embedded in Tier: embedding must flatten into the
// same keys, or cmd/loadgen and anything else decoding the payload breaks.
// A replica carries its backend's DBStats under the db tier's keys
// (`wal_checkpoints` and `wal_recoveries` were `checkpoints` and
// `recoveries` before).
func TestStatusJSONKeysStable(t *testing.T) {
	var m map[string]any
	if err := json.Unmarshal(filled(t, 100).JSON(), &m); err != nil {
		t.Fatal(err)
	}
	keys := func(obj any) string {
		var ks []string
		for k := range obj.(map[string]any) {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	first := func(list string) any { return m[list].([]any)[0] }
	for _, c := range []struct{ what, got, want string }{
		{"tier", keys(first("tiers")),
			"aborts broadcast_acks broadcasts bytes commits deadlock_timeouts downstream loads lock_bypasses name page_cache_bypasses page_cache_hits page_cache_invalidations page_cache_misses plan_hits plan_misses pool prepared_execs queries query_cache_bypasses query_cache_hits query_cache_invalidations query_cache_misses readonly_txns requests shard_2pc_txns shard_broadcast shard_scatter shard_single shards slow_ejections snapshot_reads snapshot_refreshes stores text_execs txn_lock_wait_nanos wal_appends wal_bytes wal_checkpoints wal_fsyncs wal_full_syncs wal_recoveries"},
		{"replica", keys(first("replicas")),
			"addr deadlock_timeouts ejections healthy id lag_nanos lock_bypasses plan_hits plan_misses pool prepared_execs queries reads shard snapshot_reads snapshot_refreshes text_execs txn_lock_wait_nanos wal_appends wal_bytes wal_checkpoints wal_fsyncs wal_recoveries writes"},
		{"app backend", keys(first("app_backends")),
			"affinity ejections errors failovers healthy id in_flight pool requests routed"},
		// The pool object lost backoff_nanos and backoffs with the backoff
		// itself, and borrow_mean_ms / borrow_p95_ms / borrow_max_ms to the
		// one borrow histogram, which merges and windows exactly.
		{"pool", keys(first("tiers").(map[string]any)["pool"]),
			"borrow capacity dials discards gets idle in_use name op_timeouts retries timeout_nanos wait_nanos wait_timeouts waits"},
	} {
		if c.got != c.want {
			t.Errorf("%s keys changed:\n got %s\nwant %s", c.what, c.got, c.want)
		}
	}
}

// TestTierFieldNamesUnique: a Go name declared at two depths of a row would
// leave the deeper field shadowed, so every field of Tier, Replica and
// AppBackend and of the counter structs each embeds has a name of its own.
func TestTierFieldNamesUnique(t *testing.T) {
	var seen map[string]string
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous {
				walk(f.Type)
				continue
			}
			if in, dup := seen[f.Name]; dup {
				t.Errorf("%s is declared in %s and in %s", f.Name, in, typ.Name())
			}
			seen[f.Name] = typ.Name()
		}
	}
	for _, row := range []any{Tier{}, Replica{}, AppBackend{}} {
		seen = map[string]string{}
		walk(reflect.TypeOf(row))
	}
}

// TestStatusGlossary: README's /status field glossary has a row for every
// JSON key of a tier, a replica and an app-backend object, and its rows
// name no other key. A row's first cell names its keys: `tiers[].requests`
// / `queries` is two tier keys.
func TestStatusGlossary(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### `/status` field glossary")
	if !ok {
		t.Fatal("README has no /status field glossary")
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		list, cell := "", strings.Split(line, "|")[1]
		for i, tok := range strings.Split(cell, "`") {
			if i%2 == 0 { // outside backticks
				continue
			}
			if l, key, ok := strings.Cut(tok, "[]."); ok {
				list, tok = l, key
			}
			documented[list+"."+tok] = true
		}
	}
	var m map[string]any
	if err := json.Unmarshal(filled(t, 100).JSON(), &m); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, list := range []string{"tiers", "replicas", "app_backends"} {
		for k := range m[list].([]any)[0].(map[string]any) {
			keys[list+"."+k] = true
		}
	}
	for k := range keys {
		if !documented[k] {
			t.Errorf("/status key %s has no glossary row", k)
		}
	}
	for k := range documented {
		if !keys[k] {
			t.Errorf("glossary row names %s, which /status does not carry", k)
		}
	}
}
