package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/httpd"
	"repro/internal/httpd/httpclient"
	"repro/internal/lb"
	"repro/internal/perfsim"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/stack"
)

// Failure-injection coverage (DESIGN.md §9): the stack must degrade to
// clean HTTP errors when a tier dies, and recover when it returns.

// TestDatabaseOutageSurfacesAs500 kills the database under a live servlet
// configuration: dynamic requests must fail as 500s (not hangs or broken
// connections), while static content keeps being served.
func TestDatabaseOutageSurfacesAs500(t *testing.T) {
	// Assemble manually so we own the DB server's lifetime.
	db := sqldb.New()
	sess := db.NewSession()
	if err := auction.CreateSchema(sess); err != nil {
		t.Fatal(err)
	}
	if err := auction.Populate(sess, auction.TinyScale(), 1); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	dbSrv := wire.NewServer(db, nil)
	dbAddr, err := dbSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	lab := startAppTierOnly(t, Config{Arch: perfsim.ArchServlet, Benchmark: perfsim.Auction}, dbAddr.String())
	web := newWebServer(t, lab.front.Mux)

	c := httpclient.New(web, 5*time.Second)
	defer c.Close()
	if resp, err := c.Get("/rubis/viewitem?item=1"); err != nil || resp.Status != 200 {
		t.Fatalf("pre-outage request: %v %d", err, resp.Status)
	}

	dbSrv.Close() // the outage

	resp, err := c.Get("/rubis/viewitem?item=2")
	if err != nil {
		t.Fatalf("outage must surface as an HTTP status, got transport error: %v", err)
	}
	if resp.Status != 500 {
		t.Fatalf("outage status %d, want 500", resp.Status)
	}
	// Static content is independent of the database tier.
	img, err := c.Get("/img/item_1.gif")
	if err != nil || img.Status != 200 {
		t.Fatalf("static content must survive a DB outage: %v %d", err, img.Status)
	}
}

// TestDatabaseRestartRecovers restarts the database on the same port; the
// pooled connections must re-dial transparently.
func TestDatabaseRestartRecovers(t *testing.T) {
	db := sqldb.New()
	sess := db.NewSession()
	if err := bookstore.CreateSchema(sess); err != nil {
		t.Fatal(err)
	}
	if err := bookstore.Populate(sess, bookstore.TinyScale(), 1); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	dbSrv := wire.NewServer(db, nil)
	dbAddr, err := dbSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	lab := startAppTierOnly(t, Config{Arch: perfsim.ArchPHP, Benchmark: perfsim.Bookstore}, dbAddr.String())
	web := newWebServer(t, lab.front.Mux)
	c := httpclient.New(web, 5*time.Second)
	defer c.Close()

	if resp, _ := c.Get("/tpcw/home?c_id=1"); resp == nil || resp.Status != 200 {
		t.Fatal("pre-restart request failed")
	}
	dbSrv.Close()
	if resp, err := c.Get("/tpcw/home?c_id=1"); err == nil && resp.Status == 200 {
		t.Fatal("request succeeded during outage")
	}
	// Restart on the same address with the same data.
	dbSrv2 := wire.NewServer(db, nil)
	if _, err := dbSrv2.Listen(dbAddr.String()); err != nil {
		t.Skipf("cannot rebind %s: %v", dbAddr, err)
	}
	defer dbSrv2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.Get("/tpcw/home?c_id=1")
		if err == nil && resp.Status == 200 {
			if !strings.Contains(string(resp.Body), "<html>") {
				t.Fatalf("recovered but body wrong: %s", resp.Body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stack never recovered after DB restart: %v / %+v", err, resp)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPagesSurviveDBRestart restarts the one database under warm pools:
// every pooled connection is stale afterwards, and each read's single retry
// must run on a freshly dialed one — not on the next stale idle connection —
// so no page fails after the restart, not even the first few.
func TestPagesSurviveDBRestart(t *testing.T) {
	for _, a := range []perfsim.Arch{perfsim.ArchPHP, perfsim.ArchServlet, perfsim.ArchEJB} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			lab := startLab(t, a, perfsim.Auction)
			// Six concurrent clients leave several idle connections per pool.
			var wg sync.WaitGroup
			for i := 0; i < 6; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c := httpclient.New(lab.WebAddr(), 5*time.Second)
					defer c.Close()
					for j := 0; j < 10; j++ {
						c.Get(fmt.Sprintf("/rubis/viewitem?item=%d", 1+(i+j)%20))
					}
				}(i)
			}
			wg.Wait()

			lab.StopReplica(0)
			if err := lab.RestartReplica(0); err != nil {
				t.Skipf("cannot rebind the database: %v", err)
			}
			c := httpclient.New(lab.WebAddr(), 5*time.Second)
			defer c.Close()
			failed := 0
			for i := 0; i < 12; i++ {
				resp, err := c.Get(fmt.Sprintf("/rubis/viewitem?item=%d", 1+i))
				if err != nil || resp.Status != 200 {
					failed++
				}
			}
			if failed > 0 {
				t.Fatalf("%d of 12 pages failed after the database restart", failed)
			}
		})
	}
}

// TestEJBDatabaseFailureIsNot404: a façade answers "not found" only when
// the row is missing (ejb.ErrNotFound). With the database down the pages
// that activate one entity must answer 500, as the servlet path does — not
// 404 "no such item".
func TestEJBDatabaseFailureIsNot404(t *testing.T) {
	for _, tc := range []struct {
		bench perfsim.Benchmark
		pages []string
	}{
		{perfsim.Auction, []string{"/rubis/viewitem?item=2", "/rubis/viewuserinfo?user=2", "/rubis/aboutme?user=2"}},
		{perfsim.Bookstore, []string{"/tpcw/productdetail?i_id=2"}},
	} {
		lab := startLab(t, perfsim.ArchEJB, tc.bench)
		lab.StopReplica(0)
		c := httpclient.New(lab.WebAddr(), 5*time.Second)
		for _, p := range tc.pages {
			resp, err := c.Get(p)
			if err != nil {
				t.Fatalf("%s: want an HTTP status, got %v", p, err)
			}
			if resp.Status != 500 {
				t.Errorf("%s with the database down: status %d (%s), want 500", p, resp.Status, resp.Body)
			}
		}
		c.Close()
	}
}

// TestAppTierOutage kills the servlet container behind the AJP connector:
// the web server must answer 500, not hang.
func TestAppTierOutage(t *testing.T) {
	lab := startLab(t, perfsim.ArchServletSync, perfsim.Auction)
	c := httpclient.New(lab.WebAddr(), 5*time.Second)
	defer c.Close()
	if resp, _ := c.Get("/rubis/home"); resp == nil || resp.Status != 200 {
		t.Fatal("pre-outage request failed")
	}
	lab.StopAppBackend(0) // kill the app tier only
	resp, err := c.Get("/rubis/home")
	if err != nil {
		t.Fatalf("want HTTP error, got transport failure: %v", err)
	}
	if resp.Status != 500 {
		t.Fatalf("status %d, want 500 after app-tier death", resp.Status)
	}
}

// startAppTierOnly assembles a Lab's application tier and web front the
// way Start does — startAppTier, then stack.NewFront with the synthetic
// static images — against a database the test owns.
func startAppTierOnly(t *testing.T, cfg Config, dsn string) *Lab {
	t.Helper()
	lab := &Lab{cfg: cfg.withDefaults()}
	t.Cleanup(lab.Close)
	var err error
	if lab.app, err = lab.cfg.app(); err != nil {
		t.Fatal(err)
	}
	backends, err := lab.startAppTier(dsn)
	if err != nil {
		t.Fatal(err)
	}
	lab.front = stack.NewFront(lab.app.BasePath, backends, lb.PageCacheConfig{}, 512)
	return lab
}

// newWebServer boots an httpd server on loopback and returns its address.
func newWebServer(t *testing.T, mux *httpd.Mux) string {
	t.Helper()
	srv := httpd.NewServer(mux, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}
