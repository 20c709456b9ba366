package bookstore

import (
	"errors"
	"strings"

	"repro/internal/ejb"
	"repro/internal/rmi"
	"repro/internal/sqldb"
)

// This file is the EJB implementation of the bookstore (§4.2): entity beans
// with container-managed persistence for the eight tables, the stateless
// session façade holding the business logic, and the RMI stub through
// which the presentation — the same pages every architecture serves —
// calls it. The container generates all row access — list pages run a
// finder for primary keys and then activate each entity (one single-row
// SELECT per row), which is exactly the flood of short queries the paper
// measures against this architecture (§5.1, §6.1).

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

// CMP is the stateless session bean: the Facade over container-managed
// entity beans.
type CMP struct {
	C *ejb.Container
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

// bySubject runs a finder on the items of a subject and activates each row.
func bySubject(tx *ejb.Tx, subject, orderBy string, limit int) ([]ItemSummary, error) {
	keys, err := tx.FindWhere("Item", "subject = ?",
		[]sqldb.Value{sqldb.String(subject)}, orderBy, limit)
	if err != nil {
		return nil, err
	}
	var out []ItemSummary
	for _, pk := range keys {
		s, err := itemSummaryOf(tx, pk)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// customer activates a customer, reporting found=false when the row is
// missing.
func customer(tx *ejb.Tx, id int64) (cst *ejb.Entity, found bool, err error) {
	cst, err = tx.Load("Customer", sqldb.Int(id))
	if errors.Is(err, ejb.ErrNotFound) {
		return nil, false, nil
	}
	return cst, err == nil, err
}

// Home activates the customer for the greeting, then lists the subject's
// five best sellers.
func (f *CMP) Home(args *HomeArgs, reply *HomeReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		if args.CustomerID > 0 {
			cst, found, err := customer(tx, args.CustomerID)
			if err != nil {
				return err
			}
			if found {
				fn, _ := cst.Get("fname")
				ln, _ := cst.Get("lname")
				reply.Greeting = fn.AsString() + " " + ln.AsString()
			}
		}
		var err error
		reply.Items, err = bySubject(tx, args.Subject, "total_sold DESC", 5)
		return err
	})
}

// List implements new products and best sellers: a finder plus one
// activation per row.
func (f *CMP) List(args *ListArgs, reply *ListReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		order := "total_sold DESC"
		if args.Newest {
			order = "pub_date DESC"
		}
		var err error
		reply.Items, err = bySubject(tx, args.Subject, order, args.Limit)
		return err
	})
}

// Detail activates one item and its author.
func (f *CMP) Detail(args *ItemArgs, reply *DetailReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		it, err := tx.Load("Item", sqldb.Int(args.ItemID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil // not found is not a fault
		}
		if err != nil {
			return err
		}
		get := func(field string) sqldb.Value { v, _ := it.Get(field); return v }
		author, err := tx.Load("Author", get("author_id"))
		if err != nil {
			return err
		}
		lname, _ := author.Get("lname")
		reply.Found = true
		reply.D = ItemDetail{
			ItemSummary: ItemSummary{ID: args.ItemID, Title: get("title").AsString(),
				Author: lname.AsString(), Cost: get("cost").AsFloat()},
			Descr: get("descr").AsString(), Stock: get("stock").AsInt(),
		}
		return nil
	})
}

// Search implements the three search modes via finders.
func (f *CMP) Search(args *SearchArgs, reply *ListReply) error {
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
				iks, ferr := tx.FindWhere("Item", "author_id = ?", []sqldb.Value{ak}, "", 10)
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

// Cart activates each cart item; an item that no longer exists is left
// out, and any other failure is the database's and surfaces.
func (f *CMP) Cart(args *CartArgs, reply *CartReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		for i, id := range args.ItemIDs {
			s, err := itemSummaryOf(tx, sqldb.Int(id))
			if errors.Is(err, ejb.ErrNotFound) {
				continue
			}
			if err != nil {
				return err
			}
			reply.Lines = append(reply.Lines, CartLine{s, args.Qtys[i]})
			reply.Total += s.Cost * float64(args.Qtys[i])
		}
		return nil
	})
}

// Register creates the address and customer entities.
func (f *CMP) Register(args *RegisterArgs, reply *RegisterReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		addr, err := tx.Create("Address", []sqldb.Value{
			sqldb.String(args.Street), sqldb.String(args.City), sqldb.Int(1)})
		if err != nil {
			return err
		}
		cid, err := tx.Create("Customer", []sqldb.Value{
			sqldb.String(args.Uname), sqldb.String(args.Passwd),
			sqldb.String(args.Fname), sqldb.String(args.Lname),
			addr, sqldb.String(args.Phone), sqldb.String(args.Uname + "@example.com"),
			sqldb.Float(0)})
		if err != nil {
			return err
		}
		reply.CustomerID = cid.AsInt()
		return nil
	})
}

// BuyRequest activates the customer and the customer's address.
func (f *CMP) BuyRequest(args *CustomerArgs, reply *BuyRequestReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		cst, found, err := customer(tx, args.CustomerID)
		if !found {
			return err
		}
		addrID, _ := cst.Get("addr_id")
		addr, err := tx.Load("Address", addrID)
		if errors.Is(err, ejb.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		get := func(e *ejb.Entity, field string) string { v, _ := e.Get(field); return v.AsString() }
		*reply = BuyRequestReply{Found: true, Fname: get(cst, "fname"), Lname: get(cst, "lname"),
			Street: get(addr, "street"), City: get(addr, "city")}
		return nil
	})
}

// Buy is the purchase transaction: entity activations and per-field stores
// replace the hand-written LOCK TABLES transaction; MyISAM's per-statement
// locks are the only database-side serialization (the paper's EJB
// configuration has no LOCK TABLES).
func (f *CMP) Buy(args *BuyArgs, reply *BuyReply) error {
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
			subtotal += cost.AsFloat() * float64(args.Qtys[i])
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
			qty := args.Qtys[i]
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

// Inquiry activates the customer for the user name.
func (f *CMP) Inquiry(args *CustomerArgs, reply *InquiryReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		cst, found, err := customer(tx, args.CustomerID)
		if found {
			uname, _ := cst.Get("uname")
			reply.Uname = uname.AsString()
		}
		return err
	})
}

// LastOrder runs the order-display logic: finder + per-entity activations.
func (f *CMP) LastOrder(args *CustomerArgs, reply *OrderReply) error {
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
		reply.Order = OrderView{OrderID: keys[0].AsInt(), Total: get("total").AsFloat(),
			Status: get("status").AsString()}
		lineKeys, err := tx.FindWhere("OrderLine", "order_id = ?", []sqldb.Value{keys[0]}, "", 0)
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
			reply.Order.Lines = append(reply.Order.Lines, OrderLine{Title: title.AsString(), Qty: qty.AsInt()})
		}
		return nil
	})
}

// Admin performs the administrative update as two CMP field stores.
func (f *CMP) Admin(args *AdminArgs, _ *AdminReply) error {
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
		return it.Set("pub_date", sqldb.Int(12001))
	})
}

// remote is the EJB presentation tier's Facade: each method is one RMI
// call to the CMP façade.
type remote struct{ rc *rmi.Client }

func (r remote) call(method string, args, reply any) error {
	return r.rc.Call(FacadeName+"."+method, args, reply)
}

func (r remote) Home(a *HomeArgs, re *HomeReply) error     { return r.call("Home", a, re) }
func (r remote) List(a *ListArgs, re *ListReply) error     { return r.call("List", a, re) }
func (r remote) Detail(a *ItemArgs, re *DetailReply) error { return r.call("Detail", a, re) }
func (r remote) Search(a *SearchArgs, re *ListReply) error { return r.call("Search", a, re) }
func (r remote) Cart(a *CartArgs, re *CartReply) error     { return r.call("Cart", a, re) }
func (r remote) Buy(a *BuyArgs, re *BuyReply) error        { return r.call("Buy", a, re) }
func (r remote) Admin(a *AdminArgs, re *AdminReply) error  { return r.call("Admin", a, re) }
func (r remote) Inquiry(a *CustomerArgs, re *InquiryReply) error {
	return r.call("Inquiry", a, re)
}
func (r remote) LastOrder(a *CustomerArgs, re *OrderReply) error {
	return r.call("LastOrder", a, re)
}
func (r remote) BuyRequest(a *CustomerArgs, re *BuyRequestReply) error {
	return r.call("BuyRequest", a, re)
}
func (r remote) Register(a *RegisterArgs, re *RegisterReply) error {
	return r.call("Register", a, re)
}
