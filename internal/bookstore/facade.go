package bookstore

import (
	"fmt"
	"strings"

	"repro/internal/servlet"
	"repro/internal/sqldb"
)

// Facade is the bookstore's business logic, one method per kind of page:
// the presentation fills the arguments from the request and the session
// cart and renders the reply. It has three implementations — the
// hand-written SQL one (sqlFacade: the PHP and servlet architectures), the
// CMP session bean (CMP: the EJB architecture's façade, served over RMI)
// and the RMI stub the EJB presentation tier calls it through (remote).
// Every method has the RMI shape Method(*Args, *Reply) error.
type Facade interface {
	Home(*HomeArgs, *HomeReply) error
	List(*ListArgs, *ListReply) error
	Detail(*ItemArgs, *DetailReply) error
	Search(*SearchArgs, *ListReply) error
	Cart(*CartArgs, *CartReply) error
	Register(*RegisterArgs, *RegisterReply) error
	BuyRequest(*CustomerArgs, *BuyRequestReply) error
	Buy(*BuyArgs, *BuyReply) error
	Inquiry(*CustomerArgs, *InquiryReply) error
	LastOrder(*CustomerArgs, *OrderReply) error
	Admin(*AdminArgs, *AdminReply) error
}

// ---- arguments and replies ----

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
	Descr string
	Stock int64
}

// OrderView is the order-display payload.
type OrderView struct {
	OrderID int64
	Total   float64
	Status  string
	Lines   []OrderLine
}

// OrderLine is one line of an order.
type OrderLine struct {
	Title string
	Qty   int64
}

// HomeArgs / HomeReply serve the home page: the customer's greeting (when
// CustomerID > 0 names one) and five best sellers in Subject.
type HomeArgs struct {
	CustomerID int64
	Subject    string
}
type HomeReply struct {
	Greeting string
	Items    []ItemSummary
}

// ListArgs selects a list page: Limit items of Subject, newest first when
// Newest, else best-selling first.
type ListArgs struct {
	Subject string
	Newest  bool
	Limit   int
}

// ListReply carries list rows to the presentation tier.
type ListReply struct{ Items []ItemSummary }

// ItemArgs names an item; CustomerArgs a customer.
type ItemArgs struct{ ItemID int64 }
type CustomerArgs struct{ CustomerID int64 }

// DetailReply serves the product-detail page.
type DetailReply struct {
	Found bool
	D     ItemDetail
}

// SearchArgs selects a search: by "title", "subject" or (otherwise) author.
type SearchArgs struct {
	Type string
	Term string
}

// CartArgs prices a cart, its lines in item-id order.
type CartArgs struct {
	ItemIDs []int64
	Qtys    []int64
}

// CartReply returns the priced lines (items that no longer exist are
// left out) and their total.
type CartReply struct {
	Lines []CartLine
	Total float64
}

// CartLine is one priced cart line.
type CartLine struct {
	ItemSummary
	Qty int64
}

// RegisterArgs / RegisterReply create a customer.
type RegisterArgs struct {
	Uname, Passwd, Fname, Lname, Phone, Street, City string
}
type RegisterReply struct{ CustomerID int64 }

// BuyRequestReply is the customer's shipping address, when found.
type BuyRequestReply struct {
	Found                      bool
	Fname, Lname, Street, City string
}

// BuyArgs / BuyReply run the purchase of a cart, its lines in item-id
// order.
type BuyArgs struct {
	CustomerID int64
	ItemIDs    []int64
	Qtys       []int64
}
type BuyReply struct{ OrderID int64 }

// InquiryReply is the customer's user name ("" when unknown).
type InquiryReply struct{ Uname string }

// OrderReply is the customer's latest order, when there is one.
type OrderReply struct {
	Found bool
	Order OrderView
}

// AdminArgs / AdminReply update an item's price.
type AdminArgs struct {
	ItemID int64
	Cost   float64
}
type AdminReply struct{}

// ---- the hand-written SQL implementation ----

// sqlFacade runs the hand-written SQL through its container's context:
// reads on its database client, read-write sets under the locking
// discipline sync selects.
type sqlFacade struct {
	ctx  *servlet.Context
	sync bool
}

func (f sqlFacade) exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	if f.ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	return f.ctx.DB.Exec(query, args...)
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

// listSQL is the home, new-products and best-sellers query; %s is the
// ORDER BY key.
const listSQL = `SELECT i.id, i.title, a.lname, i.cost FROM items i
		 JOIN authors a ON a.id = i.author_id
		 WHERE i.subject = ? ORDER BY %s LIMIT %d`

func (f sqlFacade) Home(args *HomeArgs, reply *HomeReply) error {
	if args.CustomerID > 0 {
		res, err := f.exec("SELECT fname, lname FROM customers WHERE id = ?", sqldb.Int(args.CustomerID))
		if err != nil {
			return err
		}
		if len(res.Rows) > 0 {
			reply.Greeting = res.Rows[0][0].AsString() + " " + res.Rows[0][1].AsString()
		}
	}
	var list ListReply
	err := f.List(&ListArgs{Subject: args.Subject, Limit: 5}, &list)
	reply.Items = list.Items
	return err
}

func (f sqlFacade) List(args *ListArgs, reply *ListReply) error {
	order := "i.total_sold DESC"
	if args.Newest {
		order = "i.pub_date DESC"
	}
	res, err := f.exec(fmt.Sprintf(listSQL, order, args.Limit), sqldb.String(args.Subject))
	if err != nil {
		return err
	}
	reply.Items = itemSummaries(res)
	return nil
}

func (f sqlFacade) Detail(args *ItemArgs, reply *DetailReply) error {
	res, err := f.exec(
		`SELECT i.id, i.title, a.lname, i.cost, i.subject, i.descr, i.pub_date, i.stock
		 FROM items i JOIN authors a ON a.id = i.author_id WHERE i.id = ?`,
		sqldb.Int(args.ItemID))
	if err != nil || len(res.Rows) == 0 {
		return err
	}
	r := res.Rows[0]
	reply.Found = true
	reply.D = ItemDetail{
		ItemSummary: ItemSummary{ID: r[0].AsInt(), Title: r[1].AsString(),
			Author: r[2].AsString(), Cost: r[3].AsFloat()},
		Descr: r[5].AsString(), Stock: r[7].AsInt(),
	}
	return nil
}

func (f sqlFacade) Search(args *SearchArgs, reply *ListReply) error {
	var res *sqldb.Result
	var err error
	switch args.Type {
	case "title":
		res, err = f.exec(
			`SELECT i.id, i.title, a.lname, i.cost FROM items i
			 JOIN authors a ON a.id = i.author_id
			 WHERE i.title LIKE ? ORDER BY i.title LIMIT 50`,
			sqldb.String("%"+args.Term+"%"))
	case "subject":
		res, err = f.exec(
			`SELECT i.id, i.title, a.lname, i.cost FROM items i
			 JOIN authors a ON a.id = i.author_id
			 WHERE i.subject = ? ORDER BY i.title LIMIT 50`,
			sqldb.String(strings.ToUpper(args.Term)))
	default: // author
		res, err = f.exec(
			`SELECT i.id, i.title, a.lname, i.cost FROM items i
			 JOIN authors a ON a.id = i.author_id
			 WHERE a.lname LIKE ? ORDER BY i.title LIMIT 50`,
			sqldb.String(args.Term+"%"))
	}
	if err != nil {
		return err
	}
	reply.Items = itemSummaries(res)
	return nil
}

// Cart runs the cart page's per-item reads: sync serializes them in the
// engine; non-sync runs them unbracketed (a read-only set opens no
// transaction), so each SELECT sees the latest committed prices —
// per-statement consistency, like the EJB configuration's reads.
func (f sqlFacade) Cart(args *CartArgs, reply *CartReply) error {
	return f.ctx.WithLocks(f.sync,
		[]servlet.TableLock{{Table: "items"}, {Table: "authors"}},
		func(ex sqldb.Execer) error {
			for i, id := range args.ItemIDs {
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
				reply.Lines = append(reply.Lines, CartLine{s, args.Qtys[i]})
				reply.Total += s.Cost * float64(args.Qtys[i])
			}
			return nil
		})
}

func (f sqlFacade) Register(args *RegisterArgs, reply *RegisterReply) error {
	return f.ctx.WithLocks(f.sync,
		[]servlet.TableLock{{Table: "customers", Write: true}, {Table: "address", Write: true}},
		func(ex sqldb.Execer) error {
			res, err := ex.Exec(
				"INSERT INTO address (street, city, country_id) VALUES (?, ?, ?)",
				sqldb.String(args.Street), sqldb.String(args.City), sqldb.Int(1))
			if err != nil {
				return err
			}
			res, err = ex.Exec(
				`INSERT INTO customers (uname, passwd, fname, lname, addr_id, phone, email, discount)
				 VALUES (?, ?, ?, ?, ?, ?, ?, ?)`,
				sqldb.String(args.Uname), sqldb.String(args.Passwd),
				sqldb.String(args.Fname), sqldb.String(args.Lname),
				sqldb.Int(res.LastInsertID), sqldb.String(args.Phone),
				sqldb.String(args.Uname+"@example.com"), sqldb.Float(0))
			if err != nil {
				return err
			}
			reply.CustomerID = res.LastInsertID
			return nil
		})
}

func (f sqlFacade) BuyRequest(args *CustomerArgs, reply *BuyRequestReply) error {
	res, err := f.exec(
		`SELECT c.fname, c.lname, a.street, a.city FROM customers c
		 JOIN address a ON a.id = c.addr_id WHERE c.id = ?`, sqldb.Int(args.CustomerID))
	if err != nil || len(res.Rows) == 0 {
		return err
	}
	r := res.Rows[0]
	*reply = BuyRequestReply{Found: true, Fname: r[0].AsString(), Lname: r[1].AsString(),
		Street: r[2].AsString(), City: r[3].AsString()}
	return nil
}

func (f sqlFacade) Buy(args *BuyArgs, reply *BuyReply) error {
	cid := args.CustomerID
	return f.ctx.WithLocks(f.sync,
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
			for i, id := range args.ItemIDs {
				ires, err := ex.Exec("SELECT cost FROM items WHERE id = ?", sqldb.Int(id))
				if err != nil {
					return err
				}
				if len(ires.Rows) > 0 {
					subtotal += ires.Rows[0][0].AsFloat() * float64(args.Qtys[i])
				}
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
			reply.OrderID = ores.LastInsertID
			for i, id := range args.ItemIDs {
				qty := args.Qtys[i]
				if _, err := ex.Exec(
					"INSERT INTO order_line (order_id, item_id, qty, discount) VALUES (?, ?, ?, ?)",
					sqldb.Int(reply.OrderID), sqldb.Int(id), sqldb.Int(qty), sqldb.Float(discount)); err != nil {
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
				sqldb.Int(reply.OrderID), sqldb.String("VISA"),
				sqldb.String("4111111111111111"), sqldb.Int(13000),
				sqldb.String("AUTH-OK"))
			return err
		})
}

func (f sqlFacade) Inquiry(args *CustomerArgs, reply *InquiryReply) error {
	res, err := f.exec("SELECT uname FROM customers WHERE id = ?", sqldb.Int(args.CustomerID))
	if err != nil {
		return err
	}
	if len(res.Rows) > 0 {
		reply.Uname = res.Rows[0][0].AsString()
	}
	return nil
}

func (f sqlFacade) LastOrder(args *CustomerArgs, reply *OrderReply) error {
	res, err := f.exec(
		`SELECT id, o_date, total, status FROM orders
		 WHERE customer_id = ? ORDER BY id DESC LIMIT 1`, sqldb.Int(args.CustomerID))
	if err != nil {
		return err
	}
	if len(res.Rows) > 0 {
		r := res.Rows[0]
		ov := OrderView{OrderID: r[0].AsInt(), Total: r[2].AsFloat(), Status: r[3].AsString()}
		lres, err := f.exec(
			`SELECT ol.item_id, i.title, ol.qty FROM order_line ol
			 JOIN items i ON i.id = ol.item_id WHERE ol.order_id = ?`,
			sqldb.Int(ov.OrderID))
		if err != nil {
			return err
		}
		for _, lr := range lres.Rows {
			ov.Lines = append(ov.Lines, OrderLine{Title: lr[1].AsString(), Qty: lr[2].AsInt()})
		}
		reply.Found, reply.Order = true, ov
	}
	return nil
}

func (f sqlFacade) Admin(args *AdminArgs, _ *AdminReply) error {
	id := args.ItemID
	return f.ctx.WithLocks(f.sync, []servlet.TableLock{{Table: "items", Write: true}},
		func(ex sqldb.Execer) error {
			res, err := ex.Exec("SELECT cost FROM items WHERE id = ?", sqldb.Int(id))
			if err != nil {
				return err
			}
			if len(res.Rows) == 0 {
				return nil
			}
			_, err = ex.Exec("UPDATE items SET cost = ?, pub_date = ? WHERE id = ?",
				sqldb.Float(args.Cost), sqldb.Int(12001), sqldb.Int(id))
			return err
		})
}
