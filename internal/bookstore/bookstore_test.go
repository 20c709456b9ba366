package bookstore

import (
	"fmt"
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

// startDB boots a populated database server at TinyScale.
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

// newAppContainer builds a container hosting the direct-SQL app.
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
	if len(Interactions()) != 14 {
		t.Fatalf("TPC-W defines 14 interactions, got %d", len(Interactions()))
	}
}

func TestMixesMatchPaperRatios(t *testing.T) {
	p := Profile(TinyScale())
	writeSet := map[string]bool{
		"shoppingcart": true, "customerregistration": true,
		"buyconfirm": true, "adminconfirm": true,
	}
	want := map[string]float64{BrowsingMix: 0.95, ShoppingMix: 0.80, OrderingMix: 0.50}
	for mix, ro := range want {
		weights := p.Mixes[mix]
		var sum, roSum float64
		for i, w := range weights {
			sum += w
			if !writeSet[p.Interactions[i].Name] {
				roSum += w
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s weights sum %.4f", mix, sum)
		}
		if roSum < ro-0.03 || roSum > ro+0.03 {
			t.Errorf("%s read-only fraction %.3f, want ~%.2f", mix, roSum, ro)
		}
	}
}

func TestAllInteractionsServeHTML(t *testing.T) {
	c := newAppContainer(t, false)
	h := c.Handler()
	paths := []string{
		BasePath + "home?c_id=3",
		BasePath + "newproducts?subject=ARTS",
		BasePath + "bestsellers?subject=HISTORY",
		BasePath + "productdetail?i_id=5",
		BasePath + "searchrequest",
		BasePath + "searchresults?type=subject&term=arts",
		BasePath + "searchresults?type=title&term=ba",
		BasePath + "searchresults?type=author&term=Ba",
		BasePath + "shoppingcart?i_id=4&qty=2",
		BasePath + "buyrequest?c_id=2",
		BasePath + "buyconfirm?c_id=2",
		BasePath + "orderinquiry?c_id=2",
		BasePath + "orderdisplay?c_id=2",
		BasePath + "adminrequest?i_id=3",
		BasePath + "adminconfirm?i_id=3&cost=42",
	}
	for _, p := range paths {
		resp := doGet(t, h, p)
		if resp.Status != 200 {
			t.Errorf("%s -> %d: %s", p, resp.Status, resp.Body)
			continue
		}
		if !strings.Contains(string(resp.Body), "<html>") {
			t.Errorf("%s: not HTML", p)
		}
	}
}

func TestBuyConfirmUpdatesState(t *testing.T) {
	for _, sync := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", sync), func(t *testing.T) {
			c := newAppContainer(t, sync)
			h := c.Handler()
			before := doGet(t, h, BasePath+"productdetail?i_id=1")
			resp := doGet(t, h, BasePath+"buyconfirm?c_id=1") // default cart buys item c_id%items+1
			if resp.Status != 200 || !strings.Contains(string(resp.Body), "Order #") {
				t.Fatalf("buyconfirm: %d %s", resp.Status, resp.Body)
			}
			after := doGet(t, h, BasePath+"orderdisplay?c_id=1")
			if !strings.Contains(string(after.Body), "PENDING") {
				t.Fatalf("order not recorded: %s", after.Body)
			}
			_ = before
		})
	}
}

func TestRegisterCreatesCustomer(t *testing.T) {
	c := newAppContainer(t, false)
	req := &httpd.Request{Method: "POST", Path: BasePath + "customerregistration",
		Header: httpd.Header{}, Query: map[string][]string{},
		Body: []byte("uname=fresh1&passwd=x&fname=A&lname=B&street=S&city=C")}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := c.Handler().ServeHTTP(req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("register: %v %d", err, resp.Status)
	}
	if !strings.Contains(string(resp.Body), "Welcome fresh1") {
		t.Fatalf("register body: %s", resp.Body)
	}
	// Duplicate uname must fail (unique index).
	if _, err := c.Handler().ServeHTTP(req); err == nil {
		t.Fatal("duplicate registration must error")
	}
}

func TestCartSessionPersistsAcrossRequests(t *testing.T) {
	c := newAppContainer(t, false)
	h := c.Handler()
	r1 := doGet(t, h, BasePath+"shoppingcart?i_id=2&qty=3")
	cookie := r1.Header.Get("Set-Cookie")
	if cookie == "" {
		t.Fatal("no session cookie")
	}
	jsid := strings.Split(strings.TrimPrefix(cookie, "JSESSIONID="), ";")[0]
	req := &httpd.Request{Method: "GET", Path: BasePath + "shoppingcart",
		Header: httpd.Header{}, Query: map[string][]string{"i_id": {"5"}, "qty": {"1"}}}
	req.Header.Set("Cookie", "JSESSIONID="+jsid)
	resp, err := h.ServeHTTP(req)
	if err != nil {
		t.Fatal(err)
	}
	// The cart should now show two lines (items 2 and 5).
	body := string(resp.Body)
	if strings.Count(body, "x3") != 1 {
		t.Fatalf("cart lost the first line: %s", body)
	}
}

func TestAdminConfirmChangesPrice(t *testing.T) {
	c := newAppContainer(t, true)
	h := c.Handler()
	doGet(t, h, BasePath+"adminconfirm?i_id=7&cost=77")
	resp := doGet(t, h, BasePath+"productdetail?i_id=7")
	if !strings.Contains(string(resp.Body), "$77.00") {
		t.Fatalf("price not updated: %s", resp.Body)
	}
}

// TestEJBDeployment exercises the full four-tier path: presentation
// servlets -> RMI -> session façade -> entity beans -> database.
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
		BasePath + "home?c_id=2",
		BasePath + "bestsellers?subject=ARTS",
		BasePath + "productdetail?i_id=3",
		BasePath + "searchresults?type=subject&term=arts",
		BasePath + "buyconfirm?c_id=4",
		BasePath + "orderdisplay?c_id=4",
		BasePath + "adminconfirm?i_id=2&cost=55",
	} {
		resp := doGet(t, h, p)
		if resp.Status != 200 {
			t.Errorf("%s -> %d: %s", p, resp.Status, resp.Body)
		}
	}

	// The defining EJB property: several statements per interaction (at
	// TinyScale the list pages return only a handful of rows; full scale
	// multiplies this further).
	if q := ec.QueryCount(); q < 28 {
		t.Errorf("EJB container issued only %d statements for 7 interactions; CMP should flood the DB", q)
	}
	if ec.LoadCount() < 8 {
		t.Errorf("expected many entity activations, got %d", ec.LoadCount())
	}
}

// TestSameQueriesBothDeployments verifies §4.2's controlled variable: the
// direct app issues identical SQL whether co-located or remote — trivially
// true here since it is the same code; this test asserts the sync/non-sync
// variants leave the database in the same state after the same workload.
func TestSyncAndNonSyncEquivalent(t *testing.T) {
	count := func(sync bool) string {
		c := newAppContainer(t, sync)
		h := c.Handler()
		doGet(t, h, BasePath+"buyconfirm?c_id=3")
		doGet(t, h, BasePath+"adminconfirm?i_id=5&cost=60")
		resp := doGet(t, h, BasePath+"orderdisplay?c_id=3")
		return string(resp.Body)
	}
	a, b := count(false), count(true)
	if a != b {
		t.Fatalf("sync and non-sync diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestWriteTablesExtraction(t *testing.T) {
	got := servlet.WriteTables([]servlet.TableLock{
		{Table: "orders", Write: true}, {Table: "customers"},
		{Table: "items", Write: true},
	})
	if len(got) != 2 || got[0] != "items" || got[1] != "orders" {
		t.Fatalf("WriteTables = %v, want [items orders]", got)
	}
}

func TestPopulateScalesAndIsDeterministic(t *testing.T) {
	build := func() *sqldb.DB {
		db := sqldb.New()
		s := db.NewSession()
		defer s.Close()
		if err := CreateSchema(s); err != nil {
			t.Fatal(err)
		}
		if err := Populate(s, TinyScale(), 7); err != nil {
			t.Fatal(err)
		}
		return db
	}
	d1, d2 := build(), build()
	for _, table := range []string{"items", "customers", "orders", "authors"} {
		t1, _ := d1.Table(table)
		t2, _ := d2.Table(table)
		if t1.RowCount() != t2.RowCount() || t1.RowCount() == 0 {
			t.Fatalf("%s: %d vs %d rows", table, t1.RowCount(), t2.RowCount())
		}
	}
	it, _ := d1.Table("items")
	if it.RowCount() != TinyScale().Items {
		t.Fatalf("items %d, want %d", it.RowCount(), TinyScale().Items)
	}
}
