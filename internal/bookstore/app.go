package bookstore

import (
	"encoding/gob"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/httpd"
	"repro/internal/servlet"
	"repro/internal/sqldb"
)

// The cart lives in the HTTP session; registering it with gob is what lets
// a replicated application tier write it through the shared session store
// (servlet.SessionStore) and restore it on another backend after failover.
func init() { gob.Register(&cart{}) }

// Config selects the locking discipline and optional emulated externals.
type Config struct {
	// Sync moves table locking into the engine-side lock manager (the
	// paper's "(sync)" configurations); false brackets each read-write
	// interaction in a database transaction (BEGIN ... COMMIT, rollback on
	// failure) — the role the PHP scripts' LOCK TABLES sections played,
	// with narrower locks.
	Sync bool
	// PGEDelay emulates the TPC-W payment gateway authorization latency
	// during Buy Confirm. Zero keeps tests fast.
	PGEDelay time.Duration
}

// App is the hand-written-SQL implementation of the bookstore, deployable
// both in-process with the web server (the PHP analog) and in a remote
// servlet container: both issue exactly the same statements, which is the
// paper's controlled variable (§4.2).
type App struct {
	sc  Scale
	cfg Config
}

// New creates the application. The database pool comes from the hosting
// container's context at request time.
func New(sc Scale, cfg Config) *App { return &App{sc: sc, cfg: cfg} }

// BasePath is the URL prefix of every bookstore interaction.
const BasePath = "/tpcw/"

// Interactions lists the fourteen TPC-W interaction names in a stable
// order; the workload generator indexes into it.
func Interactions() []string {
	return []string{
		"home", "newproducts", "bestsellers", "productdetail",
		"searchrequest", "searchresults", "shoppingcart",
		"customerregistration", "buyrequest", "buyconfirm",
		"orderinquiry", "orderdisplay", "adminrequest", "adminconfirm",
	}
}

// Register installs all interaction servlets on a container.
func (a *App) Register(c *servlet.Container) {
	type h = func(*servlet.Context, *httpd.Request) (*httpd.Response, error)
	routes := map[string]h{
		"home":                 a.home,
		"newproducts":          a.newProducts,
		"bestsellers":          a.bestSellers,
		"productdetail":        a.productDetail,
		"searchrequest":        a.searchRequest,
		"searchresults":        a.searchResults,
		"shoppingcart":         a.shoppingCart,
		"customerregistration": a.register,
		"buyrequest":           a.buyRequest,
		"buyconfirm":           a.buyConfirm,
		"orderinquiry":         a.orderInquiry,
		"orderdisplay":         a.orderDisplay,
		"adminrequest":         a.adminRequest,
		"adminconfirm":         a.adminConfirm,
	}
	for name, fn := range routes {
		c.Register(BasePath+name, servlet.Func(fn))
	}
}

// ---- shared row shapes and rendering ----

// ItemSummary is a list entry on home/new/best/search pages.
type ItemSummary struct {
	ID     int64
	Title  string
	Author string
	Cost   float64
}

// ItemDetail is the product-detail page payload.
type ItemDetail struct {
	ItemSummary
	Subject string
	Descr   string
	PubDate int64
	Stock   int64
}

// OrderView is the order-display payload.
type OrderView struct {
	OrderID int64
	Date    int64
	Total   float64
	Status  string
	Lines   []OrderLineView
}

// OrderLineView is one line of an order.
type OrderLineView struct {
	ItemID int64
	Title  string
	Qty    int64
}

func page(title string, body func(b *strings.Builder)) *httpd.Response {
	resp := httpd.NewResponse()
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body><h1>%s</h1>\n", title, title)
	b.WriteString(`<img src="/img/logo.gif"><img src="/img/banner.gif">` + "\n")
	body(&b)
	b.WriteString("</body></html>\n")
	resp.WriteString(b.String())
	return resp
}

func renderItems(b *strings.Builder, items []ItemSummary) {
	b.WriteString("<table>\n")
	for _, it := range items {
		fmt.Fprintf(b,
			`<tr><td><img src="/img/item_%d.gif"></td><td><a href="%sproductdetail?i_id=%d">%s</a></td><td>%s</td><td>$%.2f</td></tr>`+"\n",
			it.ID%64, BasePath, it.ID, it.Title, it.Author, it.Cost)
	}
	b.WriteString("</table>\n")
}

func itemSummaries(res *sqldb.Result) []ItemSummary {
	out := make([]ItemSummary, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, ItemSummary{
			ID: r[0].AsInt(), Title: r[1].AsString(),
			Author: r[2].AsString(), Cost: r[3].AsFloat(),
		})
	}
	return out
}

// intParam reads an integer query/form parameter with a fallback.
func intParam(req *httpd.Request, key string, def int64) int64 {
	v := req.Form().Get(key)
	if v == "" {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return def
	}
	return n
}

// ---- the fourteen interactions ----

// home (read-only): greeting plus five promotional items.
func (a *App) home(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	cid := intParam(req, "c_id", 0)
	var greeting string
	if cid > 0 {
		res, err := ctx.DB.Exec("SELECT fname, lname FROM customers WHERE id = ?", sqldb.Int(cid))
		if err != nil {
			return nil, err
		}
		if len(res.Rows) > 0 {
			greeting = res.Rows[0][0].AsString() + " " + res.Rows[0][1].AsString()
		}
	}
	subject := Subjects[int(cid)%len(Subjects)]
	res, err := ctx.DB.Exec(
		`SELECT i.id, i.title, a.lname, i.cost FROM items i
		 JOIN authors a ON a.id = i.author_id
		 WHERE i.subject = ? ORDER BY i.total_sold DESC LIMIT 5`,
		sqldb.String(subject))
	if err != nil {
		return nil, err
	}
	items := itemSummaries(res)
	return page("TPC-W Home", func(b *strings.Builder) {
		if greeting != "" {
			fmt.Fprintf(b, "<p>Welcome back, %s!</p>\n", greeting)
		}
		renderItems(b, items)
	}), nil
}

// newProducts (read-only): newest 50 in a subject.
func (a *App) newProducts(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	subject := req.Form().Get("subject")
	if subject == "" {
		subject = Subjects[0]
	}
	res, err := ctx.DB.Exec(
		`SELECT i.id, i.title, a.lname, i.cost FROM items i
		 JOIN authors a ON a.id = i.author_id
		 WHERE i.subject = ? ORDER BY i.pub_date DESC LIMIT 50`,
		sqldb.String(subject))
	if err != nil {
		return nil, err
	}
	items := itemSummaries(res)
	return page("New Products: "+subject, func(b *strings.Builder) {
		renderItems(b, items)
	}), nil
}

// bestSellers (read-only): the heavy decision-support query of the mix.
func (a *App) bestSellers(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	subject := req.Form().Get("subject")
	if subject == "" {
		subject = Subjects[0]
	}
	res, err := ctx.DB.Exec(
		`SELECT i.id, i.title, a.lname, i.cost FROM items i
		 JOIN authors a ON a.id = i.author_id
		 WHERE i.subject = ? ORDER BY i.total_sold DESC LIMIT 50`,
		sqldb.String(subject))
	if err != nil {
		return nil, err
	}
	items := itemSummaries(res)
	return page("Best Sellers: "+subject, func(b *strings.Builder) {
		renderItems(b, items)
	}), nil
}

// productDetail (read-only).
func (a *App) productDetail(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	id := intParam(req, "i_id", 1)
	res, err := ctx.DB.Exec(
		`SELECT i.id, i.title, a.lname, i.cost, i.subject, i.descr, i.pub_date, i.stock
		 FROM items i JOIN authors a ON a.id = i.author_id WHERE i.id = ?`,
		sqldb.Int(id))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return httpd.Error(404, "no such item"), nil
	}
	r := res.Rows[0]
	d := ItemDetail{
		ItemSummary: ItemSummary{ID: r[0].AsInt(), Title: r[1].AsString(),
			Author: r[2].AsString(), Cost: r[3].AsFloat()},
		Subject: r[4].AsString(), Descr: r[5].AsString(),
		PubDate: r[6].AsInt(), Stock: r[7].AsInt(),
	}
	return page("Product Detail", func(b *strings.Builder) {
		fmt.Fprintf(b, `<img src="/img/item_%d.gif"><h2>%s</h2><p>by %s</p><p>%s</p><p>$%.2f (%d in stock)</p>`+"\n",
			d.ID%64, d.Title, d.Author, d.Descr, d.Cost, d.Stock)
	}), nil
}

// searchRequest is the one all-static interaction of the benchmark (§3.1).
func (a *App) searchRequest(*servlet.Context, *httpd.Request) (*httpd.Response, error) {
	return page("Search", func(b *strings.Builder) {
		fmt.Fprintf(b, `<form action="%ssearchresults"><select name="type">
<option>author</option><option>title</option><option>subject</option></select>
<input name="term"><input type="submit"></form>`+"\n", BasePath)
	}), nil
}

// searchResults (read-only): author / title / subject searches.
func (a *App) searchResults(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	f := req.Form()
	typ, term := f.Get("type"), f.Get("term")
	var res *sqldb.Result
	var err error
	switch typ {
	case "title":
		res, err = ctx.DB.Exec(
			`SELECT i.id, i.title, a.lname, i.cost FROM items i
			 JOIN authors a ON a.id = i.author_id
			 WHERE i.title LIKE ? ORDER BY i.title LIMIT 50`,
			sqldb.String("%"+term+"%"))
	case "subject":
		res, err = ctx.DB.Exec(
			`SELECT i.id, i.title, a.lname, i.cost FROM items i
			 JOIN authors a ON a.id = i.author_id
			 WHERE i.subject = ? ORDER BY i.title LIMIT 50`,
			sqldb.String(strings.ToUpper(term)))
	default: // author
		res, err = ctx.DB.Exec(
			`SELECT i.id, i.title, a.lname, i.cost FROM items i
			 JOIN authors a ON a.id = i.author_id
			 WHERE a.lname LIKE ? ORDER BY i.title LIMIT 50`,
			sqldb.String(term+"%"))
	}
	if err != nil {
		return nil, err
	}
	items := itemSummaries(res)
	return page("Search Results", func(b *strings.Builder) {
		renderItems(b, items)
	}), nil
}

// cart is the session-resident shopping cart (TPC-W keeps cart state with
// the application tier; the paper's eight tables exclude it).
type cart struct {
	Lines map[int64]int64 // item id -> qty
}

func sessionCart(ctx *servlet.Context, req *httpd.Request, resp *httpd.Response) (*servlet.Session, *cart) {
	sess := ctx.Sessions.Ensure(req, resp)
	if v, ok := sess.Get("cart"); ok {
		return sess, v.(*cart)
	}
	c := &cart{Lines: make(map[int64]int64)}
	sess.Set("cart", c)
	return sess, c
}

// shoppingCart (read-write interaction): add/update lines, then price the
// cart against the items table under the locking discipline.
func (a *App) shoppingCart(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	resp := httpd.NewResponse()
	sess, ct := sessionCart(ctx, req, resp)
	if id := intParam(req, "i_id", 0); id > 0 {
		qty := intParam(req, "qty", 1)
		if qty <= 0 {
			delete(ct.Lines, id)
		} else {
			ct.Lines[id] = qty
		}
		sess.Set("cart", ct) // publish the mutation to the session store
	}
	type priced struct {
		ItemSummary
		Qty int64
	}
	var lines []priced
	var total float64
	// The cart page's per-item reads: sync serializes them in the engine;
	// non-sync runs them unbracketed (a read-only set opens no
	// transaction), so each SELECT sees the latest committed prices —
	// per-statement consistency, like the EJB configuration's reads.
	err := ctx.WithLocks(a.cfg.Sync,
		[]servlet.TableLock{{Table: "items"}, {Table: "authors"}},
		func(ex sqldb.Execer) error {
			ids := make([]int64, 0, len(ct.Lines))
			for id := range ct.Lines {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				res, err := ex.Exec(
					`SELECT i.id, i.title, a.lname, i.cost FROM items i
					 JOIN authors a ON a.id = i.author_id WHERE i.id = ?`,
					sqldb.Int(id))
				if err != nil {
					return err
				}
				if len(res.Rows) == 0 {
					continue
				}
				s := itemSummaries(res)[0]
				lines = append(lines, priced{s, ct.Lines[id]})
				total += s.Cost * float64(ct.Lines[id])
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	out := page("Shopping Cart", func(b *strings.Builder) {
		for _, l := range lines {
			fmt.Fprintf(b, "<p>%s x%d = $%.2f</p>\n", l.Title, l.Qty, l.Cost*float64(l.Qty))
		}
		fmt.Fprintf(b, "<p>Total: $%.2f</p>\n", total)
	})
	out.Header = resp.Header // keep Set-Cookie
	return out, nil
}

// register (read-write): create address + customer.
func (a *App) register(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	f := req.Form()
	uname := f.Get("uname")
	if uname == "" {
		uname = fmt.Sprintf("newuser%d", time.Now().UnixNano())
	}
	var cid int64
	err := ctx.WithLocks(a.cfg.Sync,
		[]servlet.TableLock{{Table: "customers", Write: true}, {Table: "address", Write: true}},
		func(ex sqldb.Execer) error {
			res, err := ex.Exec(
				"INSERT INTO address (street, city, country_id) VALUES (?, ?, ?)",
				sqldb.String(f.Get("street")), sqldb.String(f.Get("city")), sqldb.Int(1))
			if err != nil {
				return err
			}
			res, err = ex.Exec(
				`INSERT INTO customers (uname, passwd, fname, lname, addr_id, phone, email, discount)
				 VALUES (?, ?, ?, ?, ?, ?, ?, ?)`,
				sqldb.String(uname), sqldb.String(f.Get("passwd")),
				sqldb.String(f.Get("fname")), sqldb.String(f.Get("lname")),
				sqldb.Int(res.LastInsertID), sqldb.String(f.Get("phone")),
				sqldb.String(uname+"@example.com"), sqldb.Float(0))
			if err != nil {
				return err
			}
			cid = res.LastInsertID
			return nil
		})
	if err != nil {
		return nil, err
	}
	return page("Registered", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Welcome %s, customer #%d</p>\n", uname, cid)
	}), nil
}

// buyRequest (read-write class in TPC-W; reads here): show the cart with
// customer info before purchase.
func (a *App) buyRequest(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	cid := intParam(req, "c_id", 1)
	res, err := ctx.DB.Exec(
		`SELECT c.fname, c.lname, a.street, a.city FROM customers c
		 JOIN address a ON a.id = c.addr_id WHERE c.id = ?`, sqldb.Int(cid))
	if err != nil {
		return nil, err
	}
	resp := httpd.NewResponse()
	_, ct := sessionCart(ctx, req, resp)
	out := page("Buy Request", func(b *strings.Builder) {
		if len(res.Rows) > 0 {
			r := res.Rows[0]
			fmt.Fprintf(b, "<p>Ship to %s %s, %s, %s</p>\n",
				r[0].AsString(), r[1].AsString(), r[2].AsString(), r[3].AsString())
		}
		fmt.Fprintf(b, "<p>%d cart lines</p>\n", len(ct.Lines))
		fmt.Fprintf(b, `<form action="%sbuyconfirm"><input type="hidden" name="c_id" value="%d"><input type="submit" value="Confirm"></form>`+"\n", BasePath, cid)
	})
	out.Header = resp.Header
	return out, nil
}

// buyConfirm (read-write): the purchase transaction — the lock-holding
// critical section of the benchmark (§5.1).
func (a *App) buyConfirm(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	cid := intParam(req, "c_id", 1)
	resp := httpd.NewResponse()
	sess, ct := sessionCart(ctx, req, resp)
	if len(ct.Lines) == 0 {
		ct.Lines[1+cid%int64(a.sc.Items)] = 1 // emulated browsers always buy something
		sess.Set("cart", ct)
	}
	// The sync configurations authorize payment before entering the
	// critical section; the PHP flow holds its LOCK TABLES across the
	// gateway call (see perfsim's calibration notes).
	if a.cfg.Sync && a.cfg.PGEDelay > 0 {
		time.Sleep(a.cfg.PGEDelay)
	}
	var orderID int64
	err := ctx.WithLocks(a.cfg.Sync,
		[]servlet.TableLock{
			{Table: "customers"}, {Table: "items", Write: true},
			{Table: "orders", Write: true}, {Table: "order_line", Write: true},
			{Table: "credit_info", Write: true},
		},
		func(ex sqldb.Execer) error {
			cres, err := ex.Exec("SELECT discount FROM customers WHERE id = ?", sqldb.Int(cid))
			if err != nil {
				return err
			}
			discount := 0.0
			if len(cres.Rows) > 0 {
				discount = cres.Rows[0][0].AsFloat()
			}
			var subtotal float64
			ids := make([]int64, 0, len(ct.Lines))
			for id := range ct.Lines {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				ires, err := ex.Exec("SELECT cost FROM items WHERE id = ?", sqldb.Int(id))
				if err != nil {
					return err
				}
				if len(ires.Rows) > 0 {
					subtotal += ires.Rows[0][0].AsFloat() * float64(ct.Lines[id])
				}
			}
			if !a.cfg.Sync && a.cfg.PGEDelay > 0 {
				time.Sleep(a.cfg.PGEDelay)
			}
			total := subtotal * (1 - discount)
			ores, err := ex.Exec(
				`INSERT INTO orders (customer_id, o_date, subtotal, total, status)
				 VALUES (?, ?, ?, ?, ?)`,
				sqldb.Int(cid), sqldb.Int(12000), sqldb.Float(subtotal),
				sqldb.Float(total), sqldb.String("PENDING"))
			if err != nil {
				return err
			}
			orderID = ores.LastInsertID
			for _, id := range ids {
				qty := ct.Lines[id]
				if _, err := ex.Exec(
					"INSERT INTO order_line (order_id, item_id, qty, discount) VALUES (?, ?, ?, ?)",
					sqldb.Int(orderID), sqldb.Int(id), sqldb.Int(qty), sqldb.Float(discount)); err != nil {
					return err
				}
				if _, err := ex.Exec(
					"UPDATE items SET stock = stock - ?, total_sold = total_sold + ? WHERE id = ?",
					sqldb.Int(qty), sqldb.Int(qty), sqldb.Int(id)); err != nil {
					return err
				}
			}
			_, err = ex.Exec(
				`INSERT INTO credit_info (order_id, cc_type, cc_number, cc_expiry, auth_id)
				 VALUES (?, ?, ?, ?, ?)`,
				sqldb.Int(orderID), sqldb.String("VISA"),
				sqldb.String("4111111111111111"), sqldb.Int(13000),
				sqldb.String("AUTH-OK"))
			return err
		})
	if err != nil {
		return nil, err
	}
	sess.Set("cart", &cart{Lines: make(map[int64]int64)})
	out := page("Order Confirmed", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Order #%d placed.</p>\n", orderID)
	})
	out.Header = resp.Header
	return out, nil
}

// orderInquiry (read-only): login form validation.
func (a *App) orderInquiry(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	cid := intParam(req, "c_id", 1)
	res, err := ctx.DB.Exec("SELECT uname FROM customers WHERE id = ?", sqldb.Int(cid))
	if err != nil {
		return nil, err
	}
	uname := ""
	if len(res.Rows) > 0 {
		uname = res.Rows[0][0].AsString()
	}
	return page("Order Inquiry", func(b *strings.Builder) {
		fmt.Fprintf(b, `<form action="%sorderdisplay"><input type="hidden" name="c_id" value="%d">%s<input type="submit"></form>`+"\n",
			BasePath, cid, uname)
	}), nil
}

// orderDisplay (read-only): the customer's most recent order.
func (a *App) orderDisplay(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	cid := intParam(req, "c_id", 1)
	res, err := ctx.DB.Exec(
		`SELECT id, o_date, total, status FROM orders
		 WHERE customer_id = ? ORDER BY id DESC LIMIT 1`, sqldb.Int(cid))
	if err != nil {
		return nil, err
	}
	var ov OrderView
	if len(res.Rows) > 0 {
		r := res.Rows[0]
		ov = OrderView{OrderID: r[0].AsInt(), Date: r[1].AsInt(),
			Total: r[2].AsFloat(), Status: r[3].AsString()}
		lres, err := ctx.DB.Exec(
			`SELECT ol.item_id, i.title, ol.qty FROM order_line ol
			 JOIN items i ON i.id = ol.item_id WHERE ol.order_id = ?`,
			sqldb.Int(ov.OrderID))
		if err != nil {
			return nil, err
		}
		for _, lr := range lres.Rows {
			ov.Lines = append(ov.Lines, OrderLineView{
				ItemID: lr[0].AsInt(), Title: lr[1].AsString(), Qty: lr[2].AsInt()})
		}
	}
	return page("Order Display", func(b *strings.Builder) {
		if ov.OrderID == 0 {
			b.WriteString("<p>No orders on file.</p>\n")
			return
		}
		fmt.Fprintf(b, "<p>Order #%d (%s): $%.2f</p>\n", ov.OrderID, ov.Status, ov.Total)
		for _, l := range ov.Lines {
			fmt.Fprintf(b, "<p>%s x%d</p>\n", l.Title, l.Qty)
		}
	}), nil
}

// adminRequest (read-only): show the item to edit.
func (a *App) adminRequest(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	return a.productDetail(ctx, req)
}

// adminConfirm (read-write): the administrative item update.
func (a *App) adminConfirm(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	id := intParam(req, "i_id", 1)
	cost := float64(intParam(req, "cost", 25))
	err := ctx.WithLocks(a.cfg.Sync, []servlet.TableLock{{Table: "items", Write: true}},
		func(ex sqldb.Execer) error {
			res, err := ex.Exec("SELECT cost FROM items WHERE id = ?", sqldb.Int(id))
			if err != nil {
				return err
			}
			if len(res.Rows) == 0 {
				return nil
			}
			_, err = ex.Exec("UPDATE items SET cost = ?, pub_date = ? WHERE id = ?",
				sqldb.Float(cost), sqldb.Int(12001), sqldb.Int(id))
			return err
		})
	if err != nil {
		return nil, err
	}
	return page("Admin Confirm", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Item %d updated to $%.2f</p>\n", id, cost)
	}), nil
}
