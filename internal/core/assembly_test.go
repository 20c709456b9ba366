package core

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/httpd/httpclient"
	"repro/internal/lb"
	"repro/internal/pool"
	"repro/internal/servlet"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/stack"
)

// writeInteractions are the profile interactions that change the database
// or the session; every other one is a read-only page.
var writeInteractions = map[string]bool{
	// auction
	"registeritem": true, "registeruser": true, "storebuynow": true, "storebid": true, "storecomment": true,
	// bookstore
	"shoppingcart": true, "customerregistration": true, "buyconfirm": true, "adminconfirm": true,
}

// TestDaemonWiringServesLabPages is the distributed-equals-sequential
// check for the assembly: the README's multi-process topology, built here
// in one process by the same stack constructors the daemons' mains call in
// the same order, serves byte-identical pages to a core.Lab of the same
// architecture, application, scale and seed — and seeds the same database.
func TestDaemonWiringServesLabPages(t *testing.T) {
	for _, tc := range []struct {
		arch  arch.Arch
		bench arch.Benchmark
	}{
		{arch.Servlet, arch.Auction},
		{arch.EJB, arch.Bookstore},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%v/%v", tc.bench, tc.arch), func(t *testing.T) {
			app, err := stack.AppByName(tc.bench.String(), "tiny")
			if err != nil {
				t.Fatal(err)
			}
			// dbserver -benchmark B -scale tiny -seed 1
			db, _, err := stack.OpenDB(sqldb.WALOptions{}, func(e sqldb.Execer) error { return app.Seed(e, 1) })
			if err != nil {
				t.Fatal(err)
			}
			dbSrv := wire.NewServer(db, nil)
			dbAddr, err := dbSrv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dbSrv.Close() })
			dbCfg := cluster.Config{DSN: dbAddr.String(), PoolSize: 12}

			var ajpAddr net.Addr
			if tc.arch == arch.EJB {
				// ejbd -db ... -ajp ...
				ec, rmiAddr, err := app.EJBServer(dbCfg, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ec.Close() })
				rc, pc := app.PresentationBackend(rmiAddr.String(), dbCfg.PoolSize, dbCfg.Timeouts, servlet.Config{})
				t.Cleanup(func() { pc.Close(); rc.Close() })
				ajpAddr, err = pc.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
			} else {
				// servletd -db ...
				c := app.ServletBackend(servlet.Config{DB: dbCfg}, false)
				t.Cleanup(func() { c.Close() })
				ajpAddr, err = c.Start("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
			}
			// webserver -ajp ... -base ...
			backends, err := stack.Connect(ajpAddr.String(), 16, pool.Timeouts{})
			if err != nil {
				t.Fatal(err)
			}
			front := stack.NewFront(app.BasePath, backends, lb.PageCacheConfig{}, 2048)
			t.Cleanup(front.Close)
			daemons := httpclient.New(newWebServer(t, front.Mux), 10*time.Second)
			defer daemons.Close()

			lab, err := Start(Config{Arch: tc.arch, Benchmark: tc.bench, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(lab.Close)
			inLab := httpclient.New(lab.WebAddr(), 10*time.Second)
			defer inLab.Close()

			pages := 0
			for _, in := range app.Profile.Interactions {
				if writeInteractions[in.Name] {
					continue
				}
				req := in.Build(datagen.New(1)) // fixed ids: the same generator state for every page
				want, err := inLab.Get(req.Path)
				if err != nil {
					t.Fatalf("lab GET %s: %v", req.Path, err)
				}
				got, err := daemons.Get(req.Path)
				if err != nil {
					t.Fatalf("daemon-wiring GET %s: %v", req.Path, err)
				}
				if want.Status != 200 {
					t.Errorf("lab GET %s -> %d", req.Path, want.Status)
				}
				if got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
					t.Errorf("GET %s differs: daemon wiring %d (%d bytes), lab %d (%d bytes)",
						req.Path, got.Status, len(got.Body), want.Status, len(want.Body))
				}
				pages++
			}
			if pages < 10 {
				t.Fatalf("only %d read-only pages compared", pages)
			}
			if got, want := tableRows(t, db), tableRows(t, lab.DB()); got != want {
				t.Errorf("table row counts differ:\ndaemon wiring %s\nlab           %s", got, want)
			}
		})
	}
}

// tableRows renders a database's "table=rows" catalog.
func tableRows(t *testing.T, db *sqldb.DB) string {
	t.Helper()
	sess := db.NewSession()
	defer sess.Close()
	res, err := sess.Exec("SHOW TABLE STATUS")
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, row := range res.Rows {
		out += fmt.Sprintf("%s=%d ", row[0].AsString(), row[1].AsInt())
	}
	return out
}

// TestLabCloseLeaksNoGoroutines: every goroutine a Lab starts — accept
// loops, per-connection servers, the peers of pooled connections — is gone
// once Close returns (ROADMAP item 5's leak assert).
func TestLabCloseLeaksNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"php", Config{Arch: arch.PHP, Benchmark: arch.Bookstore}},
		{"servlet-2-app-replicas", Config{Arch: arch.ServletSync, Benchmark: arch.Auction, AppReplicas: 2}},
		{"ejb", Config{Arch: arch.EJB, Benchmark: arch.Auction}},
		{"2-shards-x-2-replicas", Config{Arch: arch.Servlet, Benchmark: arch.Auction, DBShards: 2, DBReplicas: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			lab, err := Start(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Traffic first, so every tier holds pooled connections and
			// their server-side goroutines when Close runs.
			c := httpclient.New(lab.WebAddr(), 10*time.Second)
			for _, in := range lab.Profile().Interactions {
				req := in.Build(datagen.New(1))
				if _, err := c.Do(req.Method, req.Path, req.ContentType, []byte(req.Body)); err != nil {
					t.Fatalf("%s: %v", req.Path, err)
				}
			}
			c.Close()
			lab.Close()
			var after int
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if after = runtime.NumGoroutine(); after <= before || time.Now().After(deadline) {
					break
				}
			}
			if after > before {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines before Start, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
