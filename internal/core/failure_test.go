package core

import (
	"strings"
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
	if err := auction.CreateSchema(sqldb.SessionExecer{S: sess}); err != nil {
		t.Fatal(err)
	}
	if err := auction.Populate(sqldb.SessionExecer{S: sess}, auction.TinyScale(), 1); err != nil {
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
	if err := bookstore.CreateSchema(sqldb.SessionExecer{S: sess}); err != nil {
		t.Fatal(err)
	}
	if err := bookstore.Populate(sqldb.SessionExecer{S: sess}, bookstore.TinyScale(), 1); err != nil {
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
