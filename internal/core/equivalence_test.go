package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/datagen"
	"repro/internal/httpd/httpclient"
	"repro/internal/workload"
)

// equivalenceRequests is the length of the oracle's request stream.
const equivalenceRequests = 600

// servedStream is what one architecture made of the oracle's stream: each
// request's status and body, and the database's final tables as sorted row
// dumps.
type servedStream struct {
	status []int
	bodies []string
	tables map[string][]string
}

// serveStream starts a lab of architecture a and sends it reqs in order
// from one client (one cookie jar, so the bookstore's cart carries over).
func serveStream(t *testing.T, a arch.Arch, b arch.Benchmark, reqs []workload.Request) servedStream {
	t.Helper()
	lab := startLab(t, a, b)
	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	out := servedStream{tables: make(map[string][]string)}
	for i, r := range reqs {
		resp, err := c.Do(r.Method, r.Path, r.ContentType, []byte(r.Body))
		if err != nil {
			t.Fatalf("%v: request %d %s %s: %v", a, i, r.Method, r.Path, err)
		}
		out.status = append(out.status, resp.Status)
		out.bodies = append(out.bodies, string(resp.Body))
	}
	sess := lab.DB().NewSession()
	defer sess.Close()
	for _, table := range lab.DB().TableNames() {
		res, err := sess.Exec("SELECT * FROM " + table)
		if err != nil {
			t.Fatalf("%v: dump %s: %v", a, table, err)
		}
		rows := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			rows = append(rows, strings.Join(cells, "|"))
		}
		sort.Strings(rows)
		out.tables[table] = rows
	}
	return out
}

// TestArchitecturesServeSamePages is INV-archs-equivalent's oracle: one
// seeded stream of requests, drawn from the mix with the client
// emulator's own pick and parameter generators, runs through each
// software path — PHP, Servlet, ServletSync and EJB — at TinyScale from
// one client. Every request must get the same status and body on every
// path, and the final tables must hold the same rows (distributed
// execution equals the sequential one).
func TestArchitecturesServeSamePages(t *testing.T) {
	for _, tc := range []struct {
		bench arch.Benchmark
		mix   string
	}{
		{arch.Auction, "bidding"},
		{arch.Bookstore, "shopping"},
	} {
		tc := tc
		t.Run(tc.bench.String(), func(t *testing.T) {
			t.Parallel()
			p, err := Config{Benchmark: tc.bench}.withDefaults().app()
			if err != nil {
				t.Fatal(err)
			}
			profile := p.Profile
			g := datagen.New(43)
			reqs := make([]workload.Request, equivalenceRequests)
			names := make([]string, equivalenceRequests)
			for i := range reqs {
				in := profile.Interactions[workload.Pick(g, profile.Mixes[tc.mix])]
				reqs[i], names[i] = in.Build(g), in.Name
			}
			ref := serveStream(t, arch.PHP, tc.bench, reqs)
			for _, a := range []arch.Arch{arch.Servlet, arch.ServletSync, arch.EJB} {
				got := serveStream(t, a, tc.bench, reqs)
				differ, refBytes, gotBytes := 0, 0, 0
				firstByName := make(map[string]int)
				for i := range reqs {
					refBytes += len(ref.bodies[i])
					gotBytes += len(got.bodies[i])
					if got.status[i] == ref.status[i] && got.bodies[i] == ref.bodies[i] {
						continue
					}
					differ++
					if _, seen := firstByName[names[i]]; !seen {
						firstByName[names[i]] = i
					}
				}
				if differ > 0 {
					t.Errorf("%v: %d of %d responses differ from %v (%d vs %d body bytes)",
						a, differ, len(reqs), arch.PHP, gotBytes, refBytes)
					for name, i := range firstByName {
						t.Logf("%v: first %s differs, request %d %s:\n  %d %q\n  %d %q", a, name, i,
							reqs[i].Path, ref.status[i], ref.bodies[i], got.status[i], got.bodies[i])
					}
				}
				for table, want := range ref.tables {
					if fmt.Sprint(got.tables[table]) != fmt.Sprint(want) {
						t.Errorf("%v: table %s differs from %v (%d vs %d rows)",
							a, table, arch.PHP, len(got.tables[table]), len(want))
					}
				}
			}
		})
	}
}
