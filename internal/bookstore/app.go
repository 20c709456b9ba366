package bookstore

import (
	"encoding/gob"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/httpd"
	"repro/internal/rmi"
	"repro/internal/servlet"
)

// The cart lives in the HTTP session; registering it with gob is what lets
// a replicated application tier write it through the shared session store
// (servlet.MemStore) and restore it on another backend after failover.
func init() { gob.Register(&cart{}) }

// Config selects the locking discipline.
type Config struct {
	// Sync moves table locking into the engine-side lock manager (the
	// paper's "(sync)" configurations); false brackets each read-write
	// interaction in a database transaction (BEGIN ... COMMIT, rollback on
	// failure) — the role the PHP scripts' LOCK TABLES sections played,
	// with narrower locks.
	Sync bool
}

// App is the bookstore's presentation: one servlet per interaction, each
// reading its parameters and the session cart, calling the Facade and
// rendering the page. Every architecture serves these same pages; they
// differ in the Facade behind them. Over the hand-written SQL façade (New)
// the app deploys in-process with the web server (the PHP analog) or in a
// remote servlet container, and both issue exactly the same statements,
// the paper's controlled variable (§4.2); over the CMP session bean
// reached by RMI (NewRemote) it is the EJB architecture's presentation
// tier.
type App struct {
	sc     Scale
	facade func(*servlet.Context) Facade
}

// New creates the application over the hand-written SQL façade, bound to
// the hosting container's context: the database pool comes from the
// container.
func New(sc Scale, cfg Config) *App {
	return &App{sc: sc, facade: func(ctx *servlet.Context) Facade { return sqlFacade{ctx: ctx, sync: cfg.Sync} }}
}

// NewRemote creates the application over the CMP façade reached through
// rc: the EJB architecture's presentation tier.
func NewRemote(sc Scale, rc *rmi.Client) *App {
	f := remote{rc}
	return &App{sc: sc, facade: func(*servlet.Context) Facade { return f }}
}

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

// handler is one interaction's presentation over a façade; ctx carries the
// session the cart lives in.
type handler = func(ctx *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error)

// Register installs all interaction servlets on a container.
func (a *App) Register(c *servlet.Container) {
	routes := map[string]handler{
		"home":                 home,
		"newproducts":          list("New Products", true),
		"bestsellers":          list("Best Sellers", false),
		"productdetail":        productDetail,
		"searchrequest":        searchRequest,
		"searchresults":        searchResults,
		"shoppingcart":         shoppingCart,
		"customerregistration": register,
		"buyrequest":           buyRequest,
		"buyconfirm":           a.buyConfirm,
		"orderinquiry":         orderInquiry,
		"orderdisplay":         orderDisplay,
		"adminrequest":         productDetail, // show the item to edit
		"adminconfirm":         adminConfirm,
	}
	f := a.facade(c.Context())
	for name, fn := range routes {
		fn := fn
		c.Register(BasePath+name, servlet.Func(func(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			return fn(ctx, f, req)
		}))
	}
}

// ---- rendering ----

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

// ---- the session cart ----

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

// lines lists the cart by item id: both façades price and order it in this
// order, so the subtotal sums in one order and order lines get their ids
// in one order.
func (c *cart) lines() (ids, qtys []int64) {
	for id := range c.Lines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		qtys = append(qtys, c.Lines[id])
	}
	return ids, qtys
}

// ---- the fourteen interactions ----

// home (read-only): greeting plus five promotional items.
func home(_ *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	cid := intParam(req, "c_id", 0)
	var r HomeReply
	if err := f.Home(&HomeArgs{CustomerID: cid, Subject: Subjects[int(cid)%len(Subjects)]}, &r); err != nil {
		return nil, err
	}
	return page("TPC-W Home", func(b *strings.Builder) {
		if r.Greeting != "" {
			fmt.Fprintf(b, "<p>Welcome back, %s!</p>\n", r.Greeting)
		}
		renderItems(b, r.Items)
	}), nil
}

// list serves new products (newest first) and best sellers: fifty items
// in a subject.
func list(title string, newest bool) handler {
	return func(_ *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
		subject := req.Form().Get("subject")
		if subject == "" {
			subject = Subjects[0]
		}
		var r ListReply
		if err := f.List(&ListArgs{Subject: subject, Newest: newest, Limit: 50}, &r); err != nil {
			return nil, err
		}
		return page(title+": "+subject, func(b *strings.Builder) {
			renderItems(b, r.Items)
		}), nil
	}
}

// productDetail (read-only).
func productDetail(_ *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	var r DetailReply
	if err := f.Detail(&ItemArgs{ItemID: intParam(req, "i_id", 1)}, &r); err != nil {
		return nil, err
	}
	if !r.Found {
		return httpd.Error(404, "no such item"), nil
	}
	d := r.D
	return page("Product Detail", func(b *strings.Builder) {
		fmt.Fprintf(b, `<img src="/img/item_%d.gif"><h2>%s</h2><p>by %s</p><p>%s</p><p>$%.2f (%d in stock)</p>`+"\n",
			d.ID%64, d.Title, d.Author, d.Descr, d.Cost, d.Stock)
	}), nil
}

// searchRequest is the one all-static interaction of the benchmark (§3.1).
func searchRequest(*servlet.Context, Facade, *httpd.Request) (*httpd.Response, error) {
	return page("Search", func(b *strings.Builder) {
		fmt.Fprintf(b, `<form action="%ssearchresults"><select name="type">
<option>author</option><option>title</option><option>subject</option></select>
<input name="term"><input type="submit"></form>`+"\n", BasePath)
	}), nil
}

// searchResults (read-only): author / title / subject searches.
func searchResults(_ *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	form := req.Form()
	var r ListReply
	if err := f.Search(&SearchArgs{Type: form.Get("type"), Term: form.Get("term")}, &r); err != nil {
		return nil, err
	}
	return page("Search Results", func(b *strings.Builder) {
		renderItems(b, r.Items)
	}), nil
}

// shoppingCart (read-write interaction): add/update lines, then price the
// cart against the items table.
func shoppingCart(ctx *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
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
	var args CartArgs
	args.ItemIDs, args.Qtys = ct.lines()
	var r CartReply
	if err := f.Cart(&args, &r); err != nil {
		return nil, err
	}
	out := page("Shopping Cart", func(b *strings.Builder) {
		for _, l := range r.Lines {
			fmt.Fprintf(b, "<p>%s x%d = $%.2f</p>\n", l.Title, l.Qty, l.Cost*float64(l.Qty))
		}
		fmt.Fprintf(b, "<p>Total: $%.2f</p>\n", r.Total)
	})
	out.Header = resp.Header // keep Set-Cookie
	return out, nil
}

// register (read-write): create address + customer; a user name is
// required.
func register(_ *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	form := req.Form()
	args := RegisterArgs{Uname: form.Get("uname"), Passwd: form.Get("passwd"),
		Fname: form.Get("fname"), Lname: form.Get("lname"), Phone: form.Get("phone"),
		Street: form.Get("street"), City: form.Get("city")}
	if args.Uname == "" {
		return httpd.Error(400, "uname required"), nil
	}
	var r RegisterReply
	if err := f.Register(&args, &r); err != nil {
		return nil, err
	}
	return page("Registered", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Welcome %s, customer #%d</p>\n", args.Uname, r.CustomerID)
	}), nil
}

// buyRequest (read-write class in TPC-W; reads here): show the cart with
// customer info before purchase.
func buyRequest(ctx *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	cid := intParam(req, "c_id", 1)
	var r BuyRequestReply
	if err := f.BuyRequest(&CustomerArgs{CustomerID: cid}, &r); err != nil {
		return nil, err
	}
	resp := httpd.NewResponse()
	_, ct := sessionCart(ctx, req, resp)
	out := page("Buy Request", func(b *strings.Builder) {
		if r.Found {
			fmt.Fprintf(b, "<p>Ship to %s %s, %s, %s</p>\n", r.Fname, r.Lname, r.Street, r.City)
		}
		fmt.Fprintf(b, "<p>%d cart lines</p>\n", len(ct.Lines))
		fmt.Fprintf(b, `<form action="%sbuyconfirm"><input type="hidden" name="c_id" value="%d"><input type="submit" value="Confirm"></form>`+"\n", BasePath, cid)
	})
	out.Header = resp.Header
	return out, nil
}

// buyConfirm (read-write): the purchase transaction — the lock-holding
// critical section of the benchmark (§5.1).
func (a *App) buyConfirm(ctx *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	cid := intParam(req, "c_id", 1)
	resp := httpd.NewResponse()
	sess, ct := sessionCart(ctx, req, resp)
	if len(ct.Lines) == 0 {
		ct.Lines[1+cid%int64(a.sc.Items)] = 1 // emulated browsers always buy something
		sess.Set("cart", ct)
	}
	args := BuyArgs{CustomerID: cid}
	args.ItemIDs, args.Qtys = ct.lines()
	var r BuyReply
	if err := f.Buy(&args, &r); err != nil {
		return nil, err
	}
	sess.Set("cart", &cart{Lines: make(map[int64]int64)})
	out := page("Order Confirmed", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Order #%d placed.</p>\n", r.OrderID)
	})
	out.Header = resp.Header
	return out, nil
}

// orderInquiry (read-only): login form validation.
func orderInquiry(_ *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	cid := intParam(req, "c_id", 1)
	var r InquiryReply
	if err := f.Inquiry(&CustomerArgs{CustomerID: cid}, &r); err != nil {
		return nil, err
	}
	return page("Order Inquiry", func(b *strings.Builder) {
		fmt.Fprintf(b, `<form action="%sorderdisplay"><input type="hidden" name="c_id" value="%d">%s<input type="submit"></form>`+"\n",
			BasePath, cid, r.Uname)
	}), nil
}

// orderDisplay (read-only): the customer's most recent order.
func orderDisplay(_ *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	var r OrderReply
	if err := f.LastOrder(&CustomerArgs{CustomerID: intParam(req, "c_id", 1)}, &r); err != nil {
		return nil, err
	}
	return page("Order Display", func(b *strings.Builder) {
		if !r.Found {
			b.WriteString("<p>No orders on file.</p>\n")
			return
		}
		o := r.Order
		fmt.Fprintf(b, "<p>Order #%d (%s): $%.2f</p>\n", o.OrderID, o.Status, o.Total)
		for _, l := range o.Lines {
			fmt.Fprintf(b, "<p>%s x%d</p>\n", l.Title, l.Qty)
		}
	}), nil
}

// adminConfirm (read-write): the administrative item update.
func adminConfirm(_ *servlet.Context, f Facade, req *httpd.Request) (*httpd.Response, error) {
	args := AdminArgs{ItemID: intParam(req, "i_id", 1), Cost: float64(intParam(req, "cost", 25))}
	if err := f.Admin(&args, &AdminReply{}); err != nil {
		return nil, err
	}
	return page("Admin Confirm", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Item %d updated to $%.2f</p>\n", args.ItemID, args.Cost)
	}), nil
}
