package bookstore

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ejb"
	"repro/internal/httpd"
	"repro/internal/rmi"
	"repro/internal/servlet"
	"repro/internal/sqldb"
)

// This file is the EJB implementation of the bookstore (§4.2): entity beans
// with container-managed persistence for the eight tables, a stateless
// session façade holding the business logic, and thin presentation servlets
// that call the façade over RMI and render the same HTML as the
// hand-written-SQL app. The container generates all row access — list pages
// run a finder for primary keys and then activate each entity (one
// single-row SELECT per row), which is exactly the flood of short queries
// the paper measures against this architecture (§5.1, §6.1).

// RegisterEntities declares the entity beans on an EJB container.
func RegisterEntities(c *ejb.Container) error {
	defs := []ejb.EntityDef{
		{Name: "Country", Table: "countries", Key: "id", Fields: []string{"name"}},
		{Name: "Author", Table: "authors", Key: "id", Fields: []string{"fname", "lname"}},
		{Name: "Item", Table: "items", Key: "id", Fields: []string{
			"title", "author_id", "pub_date", "subject", "descr", "cost", "stock", "total_sold"}},
		{Name: "Customer", Table: "customers", Key: "id", Fields: []string{
			"uname", "passwd", "fname", "lname", "addr_id", "phone", "email", "discount"}},
		{Name: "Address", Table: "address", Key: "id", Fields: []string{"street", "city", "country_id"}},
		{Name: "Order", Table: "orders", Key: "id", Fields: []string{
			"customer_id", "o_date", "subtotal", "total", "status"}},
		{Name: "OrderLine", Table: "order_line", Key: "id", Fields: []string{
			"order_id", "item_id", "qty", "discount"}},
		{Name: "CreditInfo", Table: "credit_info", Key: "id", Fields: []string{
			"order_id", "cc_type", "cc_number", "cc_expiry", "auth_id"}},
	}
	for _, d := range defs {
		if err := c.DefineEntity(d); err != nil {
			return err
		}
	}
	return nil
}

// FacadeName is the RMI service name of the bookstore façade.
const FacadeName = "BookstoreFacade"

// Facade is the stateless session bean holding the bookstore business
// logic.
type Facade struct {
	C *ejb.Container
}

// ItemListArgs selects a list page.
type ItemListArgs struct {
	Subject string
	OrderBy string // "total_sold DESC" or "pub_date DESC"
	Limit   int
}

// ItemListReply carries list rows to the presentation tier.
type ItemListReply struct {
	Items []ItemSummary
}

// itemSummaryOf activates the item and its author entity (two CMP loads).
func itemSummaryOf(tx *ejb.Tx, pk sqldb.Value) (ItemSummary, error) {
	it, err := tx.Load("Item", pk)
	if err != nil {
		return ItemSummary{}, err
	}
	title, _ := it.Get("title")
	cost, _ := it.Get("cost")
	authorID, _ := it.Get("author_id")
	author, err := tx.Load("Author", authorID)
	if err != nil {
		return ItemSummary{}, err
	}
	lname, _ := author.Get("lname")
	return ItemSummary{ID: pk.AsInt(), Title: title.AsString(),
		Author: lname.AsString(), Cost: cost.AsFloat()}, nil
}

// List implements home / new products / best sellers: a finder plus one
// activation per row.
func (f *Facade) List(args *ItemListArgs, reply *ItemListReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		keys, err := tx.FindWhere("Item", "subject = ?",
			[]sqldb.Value{sqldb.String(args.Subject)}, args.OrderBy, args.Limit)
		if err != nil {
			return err
		}
		for _, pk := range keys {
			s, err := itemSummaryOf(tx, pk)
			if err != nil {
				return err
			}
			reply.Items = append(reply.Items, s)
		}
		return nil
	})
}

// DetailArgs / DetailReply serve the product-detail page.
type DetailArgs struct{ ItemID int64 }
type DetailReply struct {
	Found bool
	D     ItemDetail
}

// Detail activates one item and its author.
func (f *Facade) Detail(args *DetailArgs, reply *DetailReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		it, err := tx.Load("Item", sqldb.Int(args.ItemID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil // not found is not a fault
		}
		if err != nil {
			return err
		}
		get := func(field string) sqldb.Value { v, _ := it.Get(field); return v }
		authorID := get("author_id")
		author, err := tx.Load("Author", authorID)
		if err != nil {
			return err
		}
		lname, _ := author.Get("lname")
		reply.Found = true
		reply.D = ItemDetail{
			ItemSummary: ItemSummary{ID: args.ItemID, Title: get("title").AsString(),
				Author: lname.AsString(), Cost: get("cost").AsFloat()},
			Subject: get("subject").AsString(), Descr: get("descr").AsString(),
			PubDate: get("pub_date").AsInt(), Stock: get("stock").AsInt(),
		}
		return nil
	})
}

// SearchArgs / reply reuse ItemListReply.
type SearchArgs struct {
	Type string
	Term string
}

// Search implements the three search modes via finders.
func (f *Facade) Search(args *SearchArgs, reply *ItemListReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		var keys []sqldb.Value
		var err error
		switch args.Type {
		case "title":
			keys, err = tx.FindWhere("Item", "title LIKE ?",
				[]sqldb.Value{sqldb.String("%" + args.Term + "%")}, "title", 50)
		case "subject":
			keys, err = tx.FindWhere("Item", "subject = ?",
				[]sqldb.Value{sqldb.String(strings.ToUpper(args.Term))}, "title", 50)
		default: // author: finder on authors, then items per author
			var authorKeys []sqldb.Value
			authorKeys, err = tx.FindWhere("Author", "lname LIKE ?",
				[]sqldb.Value{sqldb.String(args.Term + "%")}, "", 10)
			if err != nil {
				return err
			}
			for _, ak := range authorKeys {
				iks, ferr := tx.FindBy("Item", "author_id", ak, 10)
				if ferr != nil {
					return ferr
				}
				keys = append(keys, iks...)
			}
		}
		if err != nil {
			return err
		}
		if len(keys) > 50 {
			keys = keys[:50]
		}
		for _, pk := range keys {
			s, err := itemSummaryOf(tx, pk)
			if err != nil {
				return err
			}
			reply.Items = append(reply.Items, s)
		}
		return nil
	})
}

// GreetArgs / GreetReply implement the home-page greeting lookup.
type GreetArgs struct{ CustomerID int64 }
type GreetReply struct{ Greeting string }

// Greet activates the customer entity.
func (f *Facade) Greet(args *GreetArgs, reply *GreetReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		cst, err := tx.Load("Customer", sqldb.Int(args.CustomerID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil // unknown customer: empty greeting
		}
		if err != nil {
			return err
		}
		fn, _ := cst.Get("fname")
		ln, _ := cst.Get("lname")
		reply.Greeting = fn.AsString() + " " + ln.AsString()
		return nil
	})
}

// CartArgs prices a cart.
type CartArgs struct {
	ItemIDs []int64
	Qtys    []int64
}

// CartReply returns priced lines.
type CartReply struct {
	Items []ItemSummary
	Total float64
}

// Cart activates each cart item.
func (f *Facade) Cart(args *CartArgs, reply *CartReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		for i, id := range args.ItemIDs {
			s, err := itemSummaryOf(tx, sqldb.Int(id))
			if err != nil {
				continue
			}
			reply.Items = append(reply.Items, s)
			if i < len(args.Qtys) {
				reply.Total += s.Cost * float64(args.Qtys[i])
			}
		}
		return nil
	})
}

// RegisterArgs / RegisterReply create a customer.
type RegisterArgs struct {
	Uname, Passwd, Fname, Lname, Street, City string
}
type RegisterReply struct{ CustomerID int64 }

// Register creates the address and customer entities.
func (f *Facade) Register(args *RegisterArgs, reply *RegisterReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		addr, err := tx.Create("Address", []sqldb.Value{
			sqldb.String(args.Street), sqldb.String(args.City), sqldb.Int(1)})
		if err != nil {
			return err
		}
		cid, err := tx.Create("Customer", []sqldb.Value{
			sqldb.String(args.Uname), sqldb.String(args.Passwd),
			sqldb.String(args.Fname), sqldb.String(args.Lname),
			addr, sqldb.String(""), sqldb.String(args.Uname + "@example.com"),
			sqldb.Float(0)})
		if err != nil {
			return err
		}
		reply.CustomerID = cid.AsInt()
		return nil
	})
}

// BuyArgs / BuyReply run the purchase.
type BuyArgs struct {
	CustomerID int64
	ItemIDs    []int64
	Qtys       []int64
}
type BuyReply struct{ OrderID int64 }

// Buy is the purchase transaction: entity activations and per-field stores
// replace the hand-written LOCK TABLES transaction; MyISAM's per-statement
// locks are the only database-side serialization (the paper's EJB
// configuration has no LOCK TABLES).
func (f *Facade) Buy(args *BuyArgs, reply *BuyReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		cst, err := tx.Load("Customer", sqldb.Int(args.CustomerID))
		if err != nil {
			return err
		}
		discount, _ := cst.Get("discount")
		var subtotal float64
		items := make([]*ejb.Entity, 0, len(args.ItemIDs))
		for i, id := range args.ItemIDs {
			it, err := tx.Load("Item", sqldb.Int(id))
			if err != nil {
				return err
			}
			cost, _ := it.Get("cost")
			qty := int64(1)
			if i < len(args.Qtys) {
				qty = args.Qtys[i]
			}
			subtotal += cost.AsFloat() * float64(qty)
			items = append(items, it)
		}
		total := subtotal * (1 - discount.AsFloat())
		orderPK, err := tx.Create("Order", []sqldb.Value{
			sqldb.Int(args.CustomerID), sqldb.Int(12000),
			sqldb.Float(subtotal), sqldb.Float(total), sqldb.String("PENDING")})
		if err != nil {
			return err
		}
		for i, it := range items {
			qty := int64(1)
			if i < len(args.Qtys) {
				qty = args.Qtys[i]
			}
			if _, err := tx.Create("OrderLine", []sqldb.Value{
				orderPK, it.PK(), sqldb.Int(qty), discount}); err != nil {
				return err
			}
			// Two single-column CMP stores per item.
			stock, _ := it.Get("stock")
			sold, _ := it.Get("total_sold")
			if err := it.Set("stock", sqldb.Int(stock.AsInt()-qty)); err != nil {
				return err
			}
			if err := it.Set("total_sold", sqldb.Int(sold.AsInt()+qty)); err != nil {
				return err
			}
		}
		if _, err := tx.Create("CreditInfo", []sqldb.Value{
			orderPK, sqldb.String("VISA"), sqldb.String("4111111111111111"),
			sqldb.Int(13000), sqldb.String("AUTH-OK")}); err != nil {
			return err
		}
		reply.OrderID = orderPK.AsInt()
		return nil
	})
}

// OrderArgs / OrderReply fetch the latest order.
type OrderArgs struct{ CustomerID int64 }
type OrderReply struct {
	Found bool
	Order OrderView
}

// LastOrder runs the order-display logic: finder + per-entity activations.
func (f *Facade) LastOrder(args *OrderArgs, reply *OrderReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		keys, err := tx.FindWhere("Order", "customer_id = ?",
			[]sqldb.Value{sqldb.Int(args.CustomerID)}, "id DESC", 1)
		if err != nil || len(keys) == 0 {
			return err
		}
		o, err := tx.Load("Order", keys[0])
		if err != nil {
			return err
		}
		get := func(field string) sqldb.Value { v, _ := o.Get(field); return v }
		reply.Found = true
		reply.Order = OrderView{OrderID: keys[0].AsInt(), Date: get("o_date").AsInt(),
			Total: get("total").AsFloat(), Status: get("status").AsString()}
		lineKeys, err := tx.FindBy("OrderLine", "order_id", keys[0], 0)
		if err != nil {
			return err
		}
		for _, lk := range lineKeys {
			l, err := tx.Load("OrderLine", lk)
			if err != nil {
				return err
			}
			itemID, _ := l.Get("item_id")
			qty, _ := l.Get("qty")
			it, err := tx.Load("Item", itemID)
			if err != nil {
				return err
			}
			title, _ := it.Get("title")
			reply.Order.Lines = append(reply.Order.Lines, OrderLineView{
				ItemID: itemID.AsInt(), Title: title.AsString(), Qty: qty.AsInt()})
		}
		return nil
	})
}

// AdminArgs / AdminReply update an item.
type AdminArgs struct {
	ItemID int64
	Cost   float64
}
type AdminReply struct{ Updated bool }

// Admin performs the administrative update as two CMP field stores.
func (f *Facade) Admin(args *AdminArgs, reply *AdminReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		it, err := tx.Load("Item", sqldb.Int(args.ItemID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := it.Set("cost", sqldb.Float(args.Cost)); err != nil {
			return err
		}
		if err := it.Set("pub_date", sqldb.Int(12001)); err != nil {
			return err
		}
		reply.Updated = true
		return nil
	})
}

// PresentationApp is the servlet-side presentation tier of the EJB
// deployment: it keeps only HTML rendering and calls the façade over RMI.
type PresentationApp struct {
	rmi *rmi.Client
	sc  Scale
}

// NewPresentationApp wires the presentation servlets to an RMI client.
func NewPresentationApp(client *rmi.Client, sc Scale) *PresentationApp {
	return &PresentationApp{rmi: client, sc: sc}
}

// Register installs the presentation servlets under the same URLs as the
// direct app, so the same workload profile drives both deployments.
func (p *PresentationApp) Register(c *servlet.Container) {
	type h = func(*servlet.Context, *httpd.Request) (*httpd.Response, error)
	routes := map[string]h{
		"home":                 p.home,
		"newproducts":          p.list("New Products", "pub_date DESC"),
		"bestsellers":          p.list("Best Sellers", "total_sold DESC"),
		"productdetail":        p.detail,
		"searchrequest":        p.searchRequest,
		"searchresults":        p.search,
		"shoppingcart":         p.cart,
		"customerregistration": p.register,
		"buyrequest":           p.buyRequest,
		"buyconfirm":           p.buyConfirm,
		"orderinquiry":         p.orderInquiry,
		"orderdisplay":         p.orderDisplay,
		"adminrequest":         p.detail,
		"adminconfirm":         p.adminConfirm,
	}
	for name, fn := range routes {
		c.Register(BasePath+name, servlet.Func(fn))
	}
}

func (p *PresentationApp) call(method string, args, reply any) error {
	return p.rmi.Call(FacadeName+"."+method, args, reply)
}

func (p *PresentationApp) home(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	cid := intParam(req, "c_id", 0)
	var greet GreetReply
	if cid > 0 {
		if err := p.call("Greet", &GreetArgs{CustomerID: cid}, &greet); err != nil && !rmi.IsFault(err) {
			return nil, err
		}
	}
	var reply ItemListReply
	subject := Subjects[int(cid)%len(Subjects)]
	if err := p.call("List", &ItemListArgs{Subject: subject, OrderBy: "total_sold DESC", Limit: 5}, &reply); err != nil {
		return nil, err
	}
	return page("TPC-W Home", func(b *strings.Builder) {
		if greet.Greeting != "" {
			fmt.Fprintf(b, "<p>Welcome back, %s!</p>\n", greet.Greeting)
		}
		renderItems(b, reply.Items)
	}), nil
}

func (p *PresentationApp) list(title, orderBy string) func(*servlet.Context, *httpd.Request) (*httpd.Response, error) {
	return func(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
		subject := req.Form().Get("subject")
		if subject == "" {
			subject = Subjects[0]
		}
		var reply ItemListReply
		if err := p.call("List", &ItemListArgs{Subject: subject, OrderBy: orderBy, Limit: 50}, &reply); err != nil {
			return nil, err
		}
		return page(title+": "+subject, func(b *strings.Builder) {
			renderItems(b, reply.Items)
		}), nil
	}
}

func (p *PresentationApp) detail(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	var reply DetailReply
	if err := p.call("Detail", &DetailArgs{ItemID: intParam(req, "i_id", 1)}, &reply); err != nil {
		return nil, err
	}
	if !reply.Found {
		return httpd.Error(404, "no such item"), nil
	}
	d := reply.D
	return page("Product Detail", func(b *strings.Builder) {
		fmt.Fprintf(b, `<img src="/img/item_%d.gif"><h2>%s</h2><p>by %s</p><p>%s</p><p>$%.2f (%d in stock)</p>`+"\n",
			d.ID%64, d.Title, d.Author, d.Descr, d.Cost, d.Stock)
	}), nil
}

func (p *PresentationApp) searchRequest(*servlet.Context, *httpd.Request) (*httpd.Response, error) {
	return page("Search", func(b *strings.Builder) {
		fmt.Fprintf(b, `<form action="%ssearchresults"><input name="term"><input type="submit"></form>`+"\n", BasePath)
	}), nil
}

func (p *PresentationApp) search(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	f := req.Form()
	var reply ItemListReply
	if err := p.call("Search", &SearchArgs{Type: f.Get("type"), Term: f.Get("term")}, &reply); err != nil {
		return nil, err
	}
	return page("Search Results", func(b *strings.Builder) {
		renderItems(b, reply.Items)
	}), nil
}

func (p *PresentationApp) cart(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
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
	args := CartArgs{}
	for id, q := range ct.Lines {
		args.ItemIDs = append(args.ItemIDs, id)
		args.Qtys = append(args.Qtys, q)
	}
	var reply CartReply
	if err := p.call("Cart", &args, &reply); err != nil {
		return nil, err
	}
	out := page("Shopping Cart", func(b *strings.Builder) {
		for _, it := range reply.Items {
			fmt.Fprintf(b, "<p>%s $%.2f</p>\n", it.Title, it.Cost)
		}
		fmt.Fprintf(b, "<p>Total: $%.2f</p>\n", reply.Total)
	})
	out.Header = resp.Header
	return out, nil
}

func (p *PresentationApp) register(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	f := req.Form()
	uname := f.Get("uname")
	if uname == "" {
		uname = fmt.Sprintf("ejbuser%d", intParam(req, "seed", 0))
	}
	var reply RegisterReply
	err := p.call("Register", &RegisterArgs{Uname: uname, Passwd: f.Get("passwd"),
		Fname: f.Get("fname"), Lname: f.Get("lname"),
		Street: f.Get("street"), City: f.Get("city")}, &reply)
	if err != nil {
		return nil, err
	}
	return page("Registered", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Welcome %s, customer #%d</p>\n", uname, reply.CustomerID)
	}), nil
}

func (p *PresentationApp) buyRequest(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	resp := httpd.NewResponse()
	_, ct := sessionCart(ctx, req, resp)
	cid := intParam(req, "c_id", 1)
	out := page("Buy Request", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>%d cart lines</p>\n", len(ct.Lines))
		fmt.Fprintf(b, `<form action="%sbuyconfirm"><input type="hidden" name="c_id" value="%d"><input type="submit"></form>`+"\n", BasePath, cid)
	})
	out.Header = resp.Header
	return out, nil
}

func (p *PresentationApp) buyConfirm(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	resp := httpd.NewResponse()
	sess, ct := sessionCart(ctx, req, resp)
	cid := intParam(req, "c_id", 1)
	if len(ct.Lines) == 0 {
		ct.Lines[1+cid%int64(p.sc.Items)] = 1
		sess.Set("cart", ct)
	}
	args := BuyArgs{CustomerID: cid}
	for id, q := range ct.Lines {
		args.ItemIDs = append(args.ItemIDs, id)
		args.Qtys = append(args.Qtys, q)
	}
	var reply BuyReply
	if err := p.call("Buy", &args, &reply); err != nil {
		return nil, err
	}
	sess.Set("cart", &cart{Lines: make(map[int64]int64)})
	out := page("Order Confirmed", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Order #%d placed.</p>\n", reply.OrderID)
	})
	out.Header = resp.Header
	return out, nil
}

func (p *PresentationApp) orderInquiry(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	cid := intParam(req, "c_id", 1)
	return page("Order Inquiry", func(b *strings.Builder) {
		fmt.Fprintf(b, `<form action="%sorderdisplay"><input type="hidden" name="c_id" value="%d"><input type="submit"></form>`+"\n", BasePath, cid)
	}), nil
}

func (p *PresentationApp) orderDisplay(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	var reply OrderReply
	if err := p.call("LastOrder", &OrderArgs{CustomerID: intParam(req, "c_id", 1)}, &reply); err != nil {
		return nil, err
	}
	return page("Order Display", func(b *strings.Builder) {
		if !reply.Found {
			b.WriteString("<p>No orders on file.</p>\n")
			return
		}
		o := reply.Order
		fmt.Fprintf(b, "<p>Order #%d (%s): $%.2f</p>\n", o.OrderID, o.Status, o.Total)
		for _, l := range o.Lines {
			fmt.Fprintf(b, "<p>%s x%d</p>\n", l.Title, l.Qty)
		}
	}), nil
}

func (p *PresentationApp) adminConfirm(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	var reply AdminReply
	args := AdminArgs{ItemID: intParam(req, "i_id", 1), Cost: float64(intParam(req, "cost", 25))}
	if err := p.call("Admin", &args, &reply); err != nil {
		return nil, err
	}
	return page("Admin Confirm", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Item %d updated: %v</p>\n", args.ItemID, reply.Updated)
	}), nil
}
