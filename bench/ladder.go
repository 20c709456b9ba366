package main

import (
	"fmt"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/ajp"
	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/httpd"
	"repro/internal/httpd/httpclient"
	"repro/internal/lb"
	"repro/internal/perfsim"
	"repro/internal/rmi"
	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/wire"
)

// The ladder times one input at successively higher public entry points —
// in-process session, wire connection, cluster client, HTTP — so that a
// layer's self time is its rung minus the rung below.

const (
	probeCalls  = 2000 // measured calls per probe ...
	probeWarm   = 200  // ... after this many warm-up calls,
	probeBudget = 200 * time.Millisecond
	// ... both cut short by the budget (warm-up gets a quarter of it):
	// a 10 ms join would otherwise hold one probe for 22 s.
	probeMinCalls = 8
	corpusArgs    = 64 // distinct argument sets per statement shape
)

// shape is one statement of the corpus: SQL copied from the applications'
// own handlers, with argument sets drawn from the seed.
type shape struct {
	SQL  string
	Args [][]sqldb.Value
}

// corpusRow is one statement of the corpus before its arguments are drawn:
// kind is point, index, join, agg, scan — or page, the one statement the
// point page (viewitem / productdetail) issues, which the reconciliation
// needs.
type corpusRow struct {
	kind, sql string
	arg       func(g *datagen.Gen) []sqldb.Value
}

// corpusSQL is the statement corpus per benchmark.
func corpusSQL(spec *workloadSpec) []corpusRow {
	intArg := func(n int) func(g *datagen.Gen) []sqldb.Value {
		return func(g *datagen.Gen) []sqldb.Value { return []sqldb.Value{sqldb.Int(int64(1 + g.Intn(n)))} }
	}
	none := func(*datagen.Gen) []sqldb.Value { return nil }
	if spec.Config.Benchmark == perfsim.Bookstore {
		sc := spec.Config.BookScale
		subject := func(g *datagen.Gen) []sqldb.Value {
			return []sqldb.Value{sqldb.String(datagen.Pick(g, bookstore.Subjects))}
		}
		return []corpusRow{
			{"point", `SELECT fname, lname FROM customers WHERE id = ?`, intArg(sc.Customers)},
			{"index", `SELECT id, o_date, total, status FROM orders WHERE customer_id = ? ORDER BY id DESC LIMIT 1`, intArg(sc.Customers)},
			{"join", `SELECT c.fname, c.lname, a.street, a.city FROM customers c JOIN address a ON a.id = c.addr_id WHERE c.id = ?`, intArg(sc.Customers)},
			{"agg", `SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id WHERE i.subject = ? ORDER BY i.total_sold DESC LIMIT 50`, subject},
			{"scan", `SELECT i.id, i.title, a.lname, i.cost FROM items i JOIN authors a ON a.id = i.author_id WHERE i.title LIKE ? ORDER BY i.title LIMIT 50`,
				func(g *datagen.Gen) []sqldb.Value { return []sqldb.Value{sqldb.String("%" + g.Word()[:2] + "%")} }},
			{"page", `SELECT i.id, i.title, a.lname, i.cost, i.subject, i.descr, i.pub_date, i.stock FROM items i JOIN authors a ON a.id = i.author_id WHERE i.id = ?`, intArg(sc.Items)},
		}
	}
	sc := spec.Config.AuctionScale
	return []corpusRow{
		{"point", `SELECT nickname, rating, creation FROM users WHERE id = ?`, intArg(sc.Users)},
		{"index", `SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE category_id = ? ORDER BY end_date LIMIT 20`, intArg(sc.Categories)},
		{"join", `SELECT b.bid, b.bid_date, u.nickname FROM bids b JOIN users u ON u.id = b.user_id WHERE b.item_id = ? ORDER BY b.bid DESC LIMIT 20`, intArg(sc.Items)},
		{"agg", `SELECT COUNT(*) FROM items`, none},
		{"scan", `SELECT id, name FROM categories ORDER BY id`, none},
		{"page", `SELECT i.name, i.description, i.max_bid, i.nb_bids, i.buy_now, u.nickname FROM items i JOIN users u ON u.id = i.seller_id WHERE i.id = ?`, intArg(sc.Items)},
	}
}

// buildCorpus draws each shape's argument sets from the seed, keeping only
// arguments for which replica 0 returns rows — on a sharded tier that is
// the rows shard 0 owns, so every rung sees the same non-empty result.
func buildCorpus(spec *workloadSpec, db *sqldb.DB, seed int64) (map[string]shape, error) {
	g := datagen.New(seed)
	sess := db.NewSession()
	defer sess.Close()
	out := make(map[string]shape)
	for _, row := range corpusSQL(spec) {
		sh := shape{SQL: row.sql}
		var first []sqldb.Value
		for try := 0; try < 16*corpusArgs && len(sh.Args) < corpusArgs; try++ {
			args := row.arg(g)
			if try == 0 {
				first = args
			}
			res, err := sess.Exec(row.sql, args...)
			if err != nil {
				return nil, fmt.Errorf("corpus %s: %w", row.kind, err)
			}
			if len(res.Rows) > 0 {
				sh.Args = append(sh.Args, args)
			}
			if args == nil {
				break
			}
		}
		if len(sh.Args) == 0 {
			sh.Args = [][]sqldb.Value{first}
		}
		out[row.kind] = sh
	}
	return out, nil
}

// ladder runs probes and stores their medians.
type ladder struct {
	tr     *tracer
	m      metricSet
	budget time.Duration
}

// probe calls fn until probeCalls calls or the budget, after a warm-up, each
// measured call a span under the probe's root span; it stores the median
// in microseconds under name. cause names the rung above.
func (l *ladder) probe(name, cause string, fn func(i int) error) error {
	i := 0
	for t0 := time.Now(); i < probeWarm && (i < probeMinCalls/4 || time.Since(t0) < l.budget/4); i++ {
		if err := fn(i); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	root := l.tr.begin(name, 0, cause)
	var lats []time.Duration
	for t0 := time.Now(); len(lats) < probeCalls && (len(lats) < probeMinCalls || time.Since(t0) < l.budget); i++ {
		id := l.tr.begin(name, root, cause)
		err := fn(i)
		lats = append(lats, l.tr.end(id))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	l.tr.end(root)
	sortDur(lats)
	l.m.set(perLayer, name, float64(percentile(lats, 50))/float64(time.Microsecond))
	return nil
}

func (l *ladder) us(name string) float64 { return l.m[name].Value }

var shapeKinds = []string{"point", "index", "join", "agg", "scan"}

// runLadder runs every rung against the workload's own lab, then the
// stand-alone fixtures of the layers its request path crosses.
func runLadder(l *ladder, spec *workloadSpec, lab *core.Lab, seed int64, tmpDir string) error {
	corpus, err := buildCorpus(spec, lab.DB(), seed)
	if err != nil {
		return err
	}
	point := corpus["point"]

	// rung 0: parse, and the plan-cache hit that replaces it.
	if err := l.probe("sqlparse.parse_us", "sqldb.prepare_hit_us", func(int) error {
		_, err := sqlparse.Parse(point.SQL)
		return err
	}); err != nil {
		return err
	}
	if err := l.probe("sqldb.prepare_hit_us", "sqldb.exec_point_us", func(int) error {
		_, err := lab.DB().Prepare(point.SQL)
		return err
	}); err != nil {
		return err
	}

	// rungs 1-3: the same statements in process, over one wire connection,
	// and through the app tier's cluster client. Reads only, so replicas
	// stay identical.
	sess := lab.DB().NewSession()
	defer sess.Close()
	conn, err := wire.Dial(lab.ReplicaAddrs()[0])
	if err != nil {
		return err
	}
	defer conn.Close()
	cl := lab.Cluster()
	type execFn func(q string, args ...sqldb.Value) (*sqldb.Result, error)
	rungs := []struct {
		layer, above string
		exec         execFn
	}{
		{"sqldb", "wire", sess.Exec},
		{"wire", "cluster", conn.ExecCached},
		{"cluster", "", cl.ExecCached},
	}
	for _, r := range rungs {
		for _, kind := range shapeKinds {
			sh := corpus[kind]
			cause := ""
			if r.above != "" {
				cause = fmt.Sprintf("%s.exec_%s_us", r.above, kind)
			}
			if err := l.probe(fmt.Sprintf("%s.exec_%s_us", r.layer, kind), cause, func(i int) error {
				_, err := r.exec(sh.SQL, sh.Args[i%len(sh.Args)]...)
				return err
			}); err != nil {
				return err
			}
		}
	}
	page := corpus["page"]
	if err := l.probe("cluster.exec_page_us", "app.point_page_us", func(i int) error {
		_, err := cl.ExecCached(page.SQL, page.Args[i%len(page.Args)]...)
		return err
	}); err != nil {
		return err
	}
	l.m.set(perLayer, "wire.self_point_us", l.us("wire.exec_point_us")-l.us("sqldb.exec_point_us"))
	l.m.set(perLayer, "cluster.self_point_us", l.us("cluster.exec_point_us")-l.us("wire.exec_point_us"))

	// Transactions through the cluster client: three point reads in a
	// read-only transaction, and the application's canonical short write
	// transaction — on a durable tier that includes the commit's fsync wait.
	if err := l.probe("cluster.read_txn_us", "", func(i int) error {
		return cl.WithReadTx(func(tx *cluster.Session) error {
			for k := 0; k < 3; k++ {
				if _, err := tx.ExecCached(point.SQL, point.Args[(i+k)%len(point.Args)]...); err != nil {
					return err
				}
			}
			return nil
		})
	}); err != nil {
		return err
	}
	if err := l.probe("cluster.write_txn_us", "", writeTxn(spec, cl, page)); err != nil {
		return err
	}

	// rung 4: over HTTP, through the web tier.
	hc := httpclient.New(lab.WebAddr(), requestTimeout)
	defer hc.Close()
	get := func(path string) error {
		resp, err := hc.Get(path)
		if err != nil {
			return err
		}
		if resp.Status != 200 || len(resp.Body) == 0 {
			return fmt.Errorf("GET %s: status %d, %d bytes", path, resp.Status, len(resp.Body))
		}
		return nil
	}
	formPath, pagePath := auction.BasePath+"sellitemform", auction.BasePath+"viewitem?item=%d"
	if spec.Config.Benchmark == perfsim.Bookstore {
		formPath, pagePath = bookstore.BasePath+"searchrequest", bookstore.BasePath+"productdetail?i_id=%d"
	}
	if err := l.probe("httpd.static_us", "", func(i int) error {
		return get(fmt.Sprintf("/img/item_%d.gif", i%64))
	}); err != nil {
		return err
	}
	if err := l.probe("app.form_us", "", func(int) error { return get(formPath) }); err != nil {
		return err
	}
	if err := l.probe("app.point_page_us", "", func(i int) error {
		return get(fmt.Sprintf(pagePath, page.Args[i%len(page.Args)][0].AsInt()))
	}); err != nil {
		return err
	}
	l.m.set(perLayer, "dispatch.self_us", l.us("app.form_us")-l.us("httpd.static_us"))
	// What the point page costs beyond dispatch, the static floor and the
	// statements it issues — the join above, or under EJB the two CMP
	// loads (item and seller) that replace it: rendering plus everything
	// the ladder does not see.
	stmts := l.us("cluster.exec_page_us")
	if spec.Config.Arch == perfsim.ArchEJB {
		stmts = 2 * l.us("cluster.exec_point_us")
	}
	gap := l.us("app.point_page_us") - l.us("dispatch.self_us") - l.us("httpd.static_us") - stmts
	l.m.set(perLayer, "recon.viewitem_gap_pct", ratio(gap, l.us("app.point_page_us"))*100)

	return runFixtures(l, spec, tmpDir)
}

// writeTxn returns the workload's short write transaction: storebid's
// SELECT, INSERT, UPDATE triple on the auction, adminconfirm's SELECT,
// UPDATE pair on the bookstore. It goes through the cluster client, so
// every replica applies it.
func writeTxn(spec *workloadSpec, cl *cluster.Client, page shape) func(i int) error {
	if spec.Config.Benchmark == perfsim.Bookstore {
		return func(i int) error {
			item := page.Args[i%len(page.Args)][0]
			return cl.WithTx([]string{"items"}, func(tx *cluster.Session) error {
				res, err := tx.ExecCached("SELECT cost FROM items WHERE id = ?", item)
				if err != nil {
					return err
				}
				cost := 10.0
				if len(res.Rows) > 0 {
					cost = res.Rows[0][0].AsFloat()
				}
				_, err = tx.ExecCached("UPDATE items SET cost = ?, pub_date = ? WHERE id = ?",
					sqldb.Float(cost), sqldb.Int(12000), item)
				return err
			})
		}
	}
	return func(i int) error {
		item := page.Args[i%len(page.Args)][0]
		return cl.WithTx([]string{"bids", "items"}, func(tx *cluster.Session) error {
			res, err := tx.ExecCached("SELECT max_bid FROM items WHERE id = ?", item)
			if err != nil {
				return err
			}
			bid := 1.0
			if len(res.Rows) > 0 {
				bid = res.Rows[0][0].AsFloat() + 1
			}
			if _, err := tx.ExecCached(
				`INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date) VALUES (?, ?, ?, ?, 1, 12006)`,
				item, sqldb.Int(1), sqldb.Float(bid), sqldb.Float(bid*1.1)); err != nil {
				return err
			}
			_, err = tx.ExecCached("UPDATE items SET nb_bids = nb_bids + 1, max_bid = ? WHERE id = ?",
				sqldb.Float(bid), item)
			return err
		})
	}
}

// ---- stand-alone fixtures ----

type noopService struct{}
type noopArgs struct{ N int }
type noopReply struct{ N int }

func (noopService) Ping(a *noopArgs, r *noopReply) error { r.N = a.N; return nil }

func stubPage(n int) httpd.Handler {
	body := []byte(strings.Repeat("x", n))
	return httpd.HandlerFunc(func(*httpd.Request) (*httpd.Response, error) {
		resp := httpd.NewResponse()
		resp.Body = body
		return resp, nil
	})
}

func stubRequest(path string) *httpd.Request {
	return &httpd.Request{Method: "GET", Path: path, Header: httpd.Header{}, Query: url.Values{}}
}

// runFixtures times single layers built from their public constructors over
// stub handlers, on the workloads whose request path crosses the layer.
func runFixtures(l *ladder, spec *workloadSpec, tmpDir string) error {
	if spec.AJP {
		for _, sz := range []struct {
			name string
			n    int
		}{{"ajp.roundtrip_1k_us", 1 << 10}, {"ajp.roundtrip_16k_us", 16 << 10}} {
			if err := ajpFixture(l, sz.name, sz.n); err != nil {
				return err
			}
		}
	}
	if spec.RMI {
		if err := rmiFixture(l); err != nil {
			return err
		}
	}
	if spec.LB {
		if err := lbFixtures(l, spec.Config.PageCache); err != nil {
			return err
		}
	}
	if spec.WAL {
		if err := walFixture(l, tmpDir); err != nil {
			return err
		}
	}
	return mvccFixture(l, spec)
}

func ajpFixture(l *ladder, name string, bodyBytes int) error {
	ln := ajp.NewListener(stubPage(bodyBytes))
	addr, err := ln.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	c := ajp.NewConnector(addr.String(), 2)
	defer c.Close()
	req := stubRequest("/stub")
	return l.probe(name, "dispatch.self_us", func(int) error {
		resp, err := c.ServeHTTP(req)
		if err == nil && len(resp.Body) != bodyBytes {
			err = fmt.Errorf("ajp stub returned %d bytes, want %d", len(resp.Body), bodyBytes)
		}
		return err
	})
}

func rmiFixture(l *ladder) error {
	srv := rmi.NewServer()
	if err := srv.Register("Noop", noopService{}); err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c := rmi.NewClient(addr.String(), 2)
	defer c.Close()
	return l.probe("rmi.call_us", "dispatch.self_us", func(i int) error {
		var reply noopReply
		return c.Call("Noop.Ping", &noopArgs{N: i}, &reply)
	})
}

func lbFixtures(l *ladder, pageCacheEntries int) error {
	pc := lb.NewPageCache(stubPage(4<<10), lb.PageCacheConfig{MaxEntries: pageCacheEntries, TTL: time.Hour})
	hit := stubRequest("/stub/hit")
	if err := l.probe("lb.pagecache_hit_us", "dispatch.self_us", func(int) error {
		_, err := pc.ServeHTTP(hit)
		return err
	}); err != nil {
		return err
	}
	// Every call a new key: a lookup miss, the stub render, a fill and —
	// past MaxEntries — an LRU eviction.
	if err := l.probe("lb.pagecache_miss_us", "dispatch.self_us", func(i int) error {
		_, err := pc.ServeHTTP(stubRequest(fmt.Sprintf("/stub/miss/%d", i)))
		return err
	}); err != nil {
		return err
	}
	stub := stubPage(64)
	bal := lb.New(lb.Config{Backends: []lb.Backend{{ID: "a0", Handler: stub}, {ID: "a1", Handler: stub}}})
	req := stubRequest("/stub")
	return l.probe("lb.pick_us", "dispatch.self_us", func(int) error {
		_, err := bal.ServeHTTP(req)
		return err
	})
}

// walFixture times one session's auto-commit INSERTs on a fresh engine with
// a write-ahead log: append, group-commit tick, fsync — no replication, no
// wire. The disk is this sandbox's.
func walFixture(l *ladder, tmpDir string) error {
	dir, err := os.MkdirTemp(tmpDir, "walfixture-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db := sqldb.New()
	sess := db.NewSession()
	defer sess.Close()
	if _, err := sess.Exec("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v INT)"); err != nil {
		return err
	}
	if _, err := db.AttachWAL(sqldb.WALOptions{Dir: dir}); err != nil {
		return err
	}
	defer db.CloseWAL()
	return l.probe("wal.commit_1session_us", "cluster.write_txn_us", func(i int) error {
		_, err := sess.Exec("INSERT INTO t (v) VALUES (?)", sqldb.Int(int64(i)))
		return err
	})
}

// mvccFixture times one write followed by one read on the populated items
// table: the write retires the table's committed snapshot, so the read
// pays the rebuild. Compare with sqldb.exec_agg_us, the same read against a
// current snapshot.
func mvccFixture(l *ladder, spec *workloadSpec) error {
	db := sqldb.New()
	sess := db.NewSession()
	defer sess.Close()
	ex := sqldb.SessionExecer{S: sess}
	var err error
	write, items := "UPDATE items SET nb_bids = nb_bids + 1 WHERE id = ?", spec.Config.AuctionScale.Items
	if spec.Config.Benchmark == perfsim.Bookstore {
		write, items = "UPDATE items SET stock = stock + 1 WHERE id = ?", spec.Config.BookScale.Items
		if err = bookstore.CreateSchema(ex); err == nil {
			err = bookstore.Populate(ex, spec.Config.BookScale, 1)
		}
	} else if err = auction.CreateSchema(ex); err == nil {
		err = auction.Populate(ex, spec.Config.AuctionScale, 1)
	}
	if err != nil {
		return err
	}
	return l.probe("mvcc.refresh_us", "sqldb.exec_agg_us", func(i int) error {
		if _, err := sess.Exec(write, sqldb.Int(int64(1+i%items))); err != nil {
			return err
		}
		_, err := sess.Exec("SELECT COUNT(*) FROM items")
		return err
	})
}
