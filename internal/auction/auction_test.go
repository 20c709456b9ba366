package auction

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ejb"
	"repro/internal/httpd"
	"repro/internal/rmi"
	"repro/internal/servlet"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

func startDB(t testing.TB) string {
	t.Helper()
	db := sqldb.New()
	sess := db.NewSession()
	if err := CreateSchema(sess); err != nil {
		t.Fatal(err)
	}
	if err := Populate(sess, TinyScale(), 42); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	srv := wire.NewServer(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

func newAppContainer(t testing.TB, sync bool) *servlet.Container {
	t.Helper()
	c := servlet.NewContainer(servlet.Config{DB: cluster.Config{DSN: startDB(t), PoolSize: 8}})
	New(TinyScale(), Config{Sync: sync}).Register(c)
	if err := c.Init(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func doGet(t testing.TB, h httpd.Handler, path string) *httpd.Response {
	t.Helper()
	req := &httpd.Request{Method: "GET", Path: path, Header: httpd.Header{},
		Query: map[string][]string{}}
	if i := strings.IndexByte(path, '?'); i >= 0 {
		req.Path = path[:i]
		for _, kv := range strings.Split(path[i+1:], "&") {
			k, v, _ := strings.Cut(kv, "=")
			req.Query[k] = []string{v}
		}
	}
	resp, err := h.ServeHTTP(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp
}

func TestInteractionsCount(t *testing.T) {
	if len(Interactions()) != 26 {
		t.Fatalf("the auction site defines 26 interactions, got %d", len(Interactions()))
	}
}

func TestProfileCoversAllInteractions(t *testing.T) {
	p := Profile(TinyScale())
	if len(p.Interactions) != 26 {
		t.Fatalf("profile has %d interactions", len(p.Interactions))
	}
	names := Interactions()
	for i, in := range p.Interactions {
		if in.Name != names[i] {
			t.Fatalf("interaction %d = %q, want %q", i, in.Name, names[i])
		}
	}
	for mix, w := range p.Mixes {
		var sum float64
		for _, v := range w {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s weights sum %.4f", mix, sum)
		}
	}
	// Bidding mix: ~15% read-write (§3.2).
	writes := map[string]bool{"registeritem": true, "registeruser": true,
		"storebuynow": true, "storebid": true, "storecomment": true}
	var rw float64
	for i, in := range p.Interactions {
		if writes[in.Name] {
			rw += p.Mixes[BiddingMix][i]
		}
	}
	if rw < 0.12 || rw > 0.18 {
		t.Errorf("bidding mix read-write fraction %.3f, want ~0.15", rw)
	}
	for i := range p.Interactions {
		if writes[p.Interactions[i].Name] && p.Mixes[BrowsingMix][i] != 0 {
			t.Errorf("browsing mix must be read-only; %s has weight", p.Interactions[i].Name)
		}
	}
}

func TestAllInteractionsServeHTML(t *testing.T) {
	c := newAppContainer(t, false)
	h := c.Handler()
	paths := []string{
		"home", "browsecategories", "browseregions",
		"searchitemsincategory?category=2", "searchitemsinregion?region=1&category=1",
		"browsecategoriesinregion?region=2", "viewitem?item=3",
		"viewbidhistory?item=3", "viewuserinfo?user=5", "sellitemform",
		"registeritem?seller=2&category=1&region=1&price=50", "registeruserform",
		"registeruser?nickname=znew1&region=2", "buynowauth?item=2", "buynow?item=2",
		"storebuynow?item=2&user=3", "putbidauth?item=4", "putbid?item=4",
		"storebid?item=4&user=5&bid=900", "putcommentauth?to=3", "putcomment?user=3",
		"storecomment?user=2&to=3&rating=5", "aboutmeauth", "aboutme?user=2",
		"login?nickname=bidder3&password=pwbidder3", "logout",
	}
	if len(paths) != 26 {
		t.Fatalf("test covers %d paths, want 26", len(paths))
	}
	for _, p := range paths {
		resp := doGet(t, h, BasePath+p)
		if resp.Status != 200 {
			t.Errorf("%s -> %d: %s", p, resp.Status, resp.Body)
		}
	}
}

func TestStoreBidMaintainsCounters(t *testing.T) {
	for _, sync := range []bool{false, true} {
		c := newAppContainer(t, sync)
		h := c.Handler()
		before := doGet(t, h, BasePath+"viewitem?item=1")
		doGet(t, h, BasePath+"storebid?item=1&user=2&bid=100000")
		after := doGet(t, h, BasePath+"viewitem?item=1")
		if string(before.Body) == string(after.Body) {
			t.Fatalf("sync=%v: bid did not change the item page", sync)
		}
		if !strings.Contains(string(after.Body), "$100000.00") {
			t.Fatalf("sync=%v: max bid not updated: %s", sync, after.Body)
		}
	}
}

func TestStoreCommentUpdatesRating(t *testing.T) {
	c := newAppContainer(t, false)
	h := c.Handler()
	doGet(t, h, BasePath+"storecomment?user=2&to=7&rating=5")
	resp := doGet(t, h, BasePath+"viewuserinfo?user=7")
	if resp.Status != 200 {
		t.Fatalf("userinfo: %d", resp.Status)
	}
}

func TestRegisterItemVisibleInCategory(t *testing.T) {
	c := newAppContainer(t, true)
	h := c.Handler()
	resp := doGet(t, h, BasePath+"registeritem?seller=1&category=3&region=1&price=42&name=zzz")
	if !strings.Contains(string(resp.Body), "on sale") {
		t.Fatalf("register item: %s", resp.Body)
	}
	listing := doGet(t, h, BasePath+"searchitemsincategory?category=3")
	if !strings.Contains(string(listing.Body), "viewitem") {
		t.Fatalf("listing empty after register: %s", listing.Body)
	}
}

func TestLogin(t *testing.T) {
	c := newAppContainer(t, false)
	h := c.Handler()
	good := doGet(t, h, BasePath+"login?nickname=bidder1&password=pwbidder1")
	if !strings.Contains(string(good.Body), "Welcome user") {
		t.Fatalf("login failed: %s", good.Body)
	}
	bad := doGet(t, h, BasePath+"login?nickname=bidder1&password=wrong")
	if !strings.Contains(string(bad.Body), "Invalid") {
		t.Fatalf("bad login accepted: %s", bad.Body)
	}
}

func TestEJBDeployment(t *testing.T) {
	dbAddr := startDB(t)
	ec, err := ejb.NewContainer(ejb.Config{DB: cluster.Config{DSN: dbAddr, PoolSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ec.Close() })
	if err := RegisterEntities(ec); err != nil {
		t.Fatal(err)
	}
	if err := ec.RegisterFacade(FacadeName, &Facade{C: ec}); err != nil {
		t.Fatal(err)
	}
	rmiAddr, err := ec.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := rmi.NewClient(rmiAddr.String(), 4)
	t.Cleanup(client.Close)
	sc := servlet.NewContainer(servlet.Config{})
	NewPresentationApp(client, TinyScale()).Register(sc)
	if err := sc.Init(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	h := sc.Handler()

	for _, p := range []string{
		"home", "searchitemsincategory?category=1", "viewitem?item=2",
		"viewbidhistory?item=2", "viewuserinfo?user=3",
		"storebid?item=2&user=4&bid=50000", "storebuynow?item=3&user=5",
		"storecomment?user=1&to=2&rating=4", "registeruser?nickname=zejb1",
		"registeritem?seller=1&category=2&region=1&price=9", "aboutme?user=1",
	} {
		resp := doGet(t, h, BasePath+p)
		if resp.Status != 200 {
			t.Errorf("%s -> %d: %s", p, resp.Status, resp.Body)
		}
	}
	if q := ec.QueryCount(); q < 30 {
		t.Errorf("EJB issued only %d statements; CMP should flood the DB", q)
	}
	// Verify the bid actually landed, through a fresh direct check.
	conn, err := wire.Dial(dbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Exec("SELECT max_bid FROM items WHERE id = 2")
	if err != nil || res.Rows[0][0].AsFloat() < 50000 {
		t.Fatalf("EJB bid not persisted: %v %v", err, res.Rows)
	}
}

func TestPopulateDeterministic(t *testing.T) {
	mk := func() int {
		db := sqldb.New()
		s := db.NewSession()
		defer s.Close()
		if err := CreateSchema(s); err != nil {
			t.Fatal(err)
		}
		if err := Populate(s, TinyScale(), 9); err != nil {
			t.Fatal(err)
		}
		tb, _ := db.Table("bids")
		return tb.RowCount()
	}
	if a, b := mk(), mk(); a != b || a == 0 {
		t.Fatalf("bids: %d vs %d", a, b)
	}
}

func TestDenormalizedCountersConsistent(t *testing.T) {
	// nb_bids on items must equal the count of bids rows per item after
	// population (§3.2 calls this redundancy out explicitly).
	db := sqldb.New()
	s := db.NewSession()
	defer s.Close()
	if err := CreateSchema(s); err != nil {
		t.Fatal(err)
	}
	if err := Populate(s, TinyScale(), 11); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec("SELECT id, nb_bids FROM items")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		cres, err := s.Exec("SELECT COUNT(*) FROM bids WHERE item_id = ?", r[0])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r[1].AsInt(), cres.Rows[0][0].AsInt(); got != want {
			t.Fatalf("item %v: nb_bids %d, bids rows %d", r[0], got, want)
		}
	}
}
