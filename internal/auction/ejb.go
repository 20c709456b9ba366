package auction

import (
	"errors"

	"repro/internal/ejb"
	"repro/internal/rmi"
	"repro/internal/sqldb"
)

// EJB deployment of the auction site: entity beans for the nine tables, the
// stateless session façade holding the business logic (§4.2), and the RMI
// stub through which the presentation — the same pages every architecture
// serves — calls it.

// RegisterEntities declares the entity beans.
func RegisterEntities(c *ejb.Container) error {
	defs := []ejb.EntityDef{
		{Name: "Category", Table: "categories", Key: "id", Fields: []string{"name"}},
		{Name: "Region", Table: "regions", Key: "id", Fields: []string{"name"}},
		{Name: "User", Table: "users", Key: "id", Fields: []string{
			"fname", "lname", "nickname", "password", "region_id", "rating", "balance", "creation"}},
		{Name: "Item", Table: "items", Key: "id", Fields: []string{
			"name", "description", "seller_id", "category_id", "region_id",
			"init_price", "reserve", "buy_now", "nb_bids", "max_bid", "start_date", "end_date"}},
		{Name: "OldItem", Table: "old_items", Key: "id", Fields: []string{
			"name", "seller_id", "category_id", "region_id", "max_bid", "end_date"}},
		{Name: "Bid", Table: "bids", Key: "id", Fields: []string{
			"item_id", "user_id", "bid", "max_bid", "qty", "bid_date"}},
		{Name: "BuyNow", Table: "buy_now", Key: "id", Fields: []string{
			"item_id", "buyer_id", "qty", "bn_date"}},
		{Name: "Comment", Table: "comments", Key: "id", Fields: []string{
			"from_user", "to_user", "item_id", "rating", "comment"}},
	}
	for _, d := range defs {
		if err := c.DefineEntity(d); err != nil {
			return err
		}
	}
	return nil
}

// FacadeName is the RMI service name of the auction façade.
const FacadeName = "AuctionFacade"

// CMP is the stateless session bean: the Facade over container-managed
// entity beans. Every row it shows costs a finder and one load (one
// single-row SELECT) per entity; the only reads outside the beans are the
// home page's item count and the category and region lists (Tx.Query).
type CMP struct {
	C *ejb.Container
}

func itemRowOf(tx *ejb.Tx, pk sqldb.Value) (ItemRow, error) {
	it, err := tx.Load("Item", pk)
	if err != nil {
		return ItemRow{}, err
	}
	get := func(f string) sqldb.Value { v, _ := it.Get(f); return v }
	return ItemRow{ID: pk.AsInt(), Name: get("name").AsString(),
		MaxBid: get("max_bid").AsFloat(), NBids: get("nb_bids").AsInt()}, nil
}

// field reads one managed field of the entity pk, activating it.
func field(tx *ejb.Tx, entity string, pk sqldb.Value, name string) (sqldb.Value, error) {
	e, err := tx.Load(entity, pk)
	if err != nil {
		return sqldb.Null(), err
	}
	return e.Get(name)
}

// Home counts the items: one statement, not a finder and a load per item.
func (f *CMP) Home(_ *HomeArgs, reply *HomeReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		res, err := tx.Query("SELECT COUNT(*) FROM items")
		if err != nil {
			return err
		}
		reply.Items = res.Rows[0][0].AsInt()
		return nil
	})
}

// Refs reads the category or region list in one statement.
func (f *CMP) Refs(args *RefsArgs, reply *RefsReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		query := "SELECT id, name FROM categories ORDER BY id"
		if args.Regions {
			query = "SELECT id, name FROM regions ORDER BY id"
		}
		res, err := tx.Query(query)
		if err != nil {
			return err
		}
		for _, r := range res.Rows {
			reply.Refs = append(reply.Refs, Ref{ID: r[0].AsInt(), Name: r[1].AsString()})
		}
		return nil
	})
}

// List is the category/region finder plus per-row activations.
func (f *CMP) List(args *ListArgs, reply *ListReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		var keys []sqldb.Value
		var err error
		if args.InRegion {
			keys, err = tx.FindWhere("Item", "region_id = ? AND category_id = ?",
				[]sqldb.Value{sqldb.Int(args.Region), sqldb.Int(args.Category)}, "end_date", 20)
		} else {
			keys, err = tx.FindWhere("Item", "category_id = ?",
				[]sqldb.Value{sqldb.Int(args.Category)}, "end_date", 20)
		}
		if err != nil {
			return err
		}
		for _, pk := range keys {
			row, err := itemRowOf(tx, pk)
			if err != nil {
				return err
			}
			reply.Items = append(reply.Items, row)
		}
		return nil
	})
}

// View activates the item and its seller.
func (f *CMP) View(args *ItemArgs, reply *ViewReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		it, err := tx.Load("Item", sqldb.Int(args.ItemID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		get := func(name string) sqldb.Value { v, _ := it.Get(name); return v }
		seller, err := field(tx, "User", get("seller_id"), "nickname")
		if err != nil {
			return err
		}
		*reply = ViewReply{Found: true, Name: get("name").AsString(),
			Descr: get("description").AsString(), MaxBid: get("max_bid").AsFloat(),
			NBids: get("nb_bids").AsInt(), BuyNow: get("buy_now").AsFloat(),
			Seller: seller.AsString()}
		return nil
	})
}

// History finds the item's highest bids and activates each bid and bidder.
func (f *CMP) History(args *ItemArgs, reply *HistoryReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		keys, err := tx.FindWhere("Bid", "item_id = ?",
			[]sqldb.Value{sqldb.Int(args.ItemID)}, "bid DESC", 20)
		if err != nil {
			return err
		}
		for _, bk := range keys {
			b, err := tx.Load("Bid", bk)
			if err != nil {
				return err
			}
			amount, _ := b.Get("bid")
			uid, _ := b.Get("user_id")
			nick, err := field(tx, "User", uid, "nickname")
			if err != nil {
				return err
			}
			reply.Bids = append(reply.Bids, BidLine{Amount: amount.AsFloat(), Name: nick.AsString()})
		}
		return nil
	})
}

// UserInfo activates the user, its ten newest comments and their authors.
func (f *CMP) UserInfo(args *UserArgs, reply *UserReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		u, err := tx.Load("User", sqldb.Int(args.UserID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		get := func(name string) sqldb.Value { v, _ := u.Get(name); return v }
		reply.Found, reply.Nickname = true, get("nickname").AsString()
		reply.Rating, reply.Creation = get("rating").AsInt(), get("creation").AsInt()
		keys, err := tx.FindWhere("Comment", "to_user = ?",
			[]sqldb.Value{sqldb.Int(args.UserID)}, "id DESC", 10)
		if err != nil {
			return err
		}
		for _, ck := range keys {
			c, err := tx.Load("Comment", ck)
			if err != nil {
				return err
			}
			rating, _ := c.Get("rating")
			text, _ := c.Get("comment")
			from, _ := c.Get("from_user")
			author, err := field(tx, "User", from, "nickname")
			if err != nil {
				return err
			}
			reply.Comments = append(reply.Comments, CommentLine{Rating: rating.AsInt(),
				Text: text.AsString(), Author: author.AsString()})
		}
		return nil
	})
}

// About runs the myEbay page's finders: the user's ten newest bids (each
// bid and its item activated), the items the user sells, and the buy-now
// purchases (counted).
func (f *CMP) About(args *UserArgs, reply *AboutReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		uid := sqldb.Int(args.UserID)
		u, err := tx.Load("User", uid)
		if errors.Is(err, ejb.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		nick, _ := u.Get("nickname")
		rating, _ := u.Get("rating")
		reply.Found, reply.Nickname, reply.Rating = true, nick.AsString(), rating.AsInt()
		bidKeys, err := tx.FindWhere("Bid", "user_id = ?", []sqldb.Value{uid}, "id DESC", 10)
		if err != nil {
			return err
		}
		for _, bk := range bidKeys {
			b, err := tx.Load("Bid", bk)
			if err != nil {
				return err
			}
			amount, _ := b.Get("bid")
			itemID, _ := b.Get("item_id")
			name, err := field(tx, "Item", itemID, "name")
			if err != nil {
				return err
			}
			reply.Bids = append(reply.Bids, BidLine{Amount: amount.AsFloat(), Name: name.AsString()})
		}
		sellKeys, err := tx.FindWhere("Item", "seller_id = ?", []sqldb.Value{uid}, "", 10)
		if err != nil {
			return err
		}
		for _, pk := range sellKeys {
			row, err := itemRowOf(tx, pk)
			if err != nil {
				return err
			}
			reply.Selling = append(reply.Selling, row)
		}
		buyKeys, err := tx.FindWhere("BuyNow", "buyer_id = ?", []sqldb.Value{uid}, "", 10)
		reply.BuyNows = len(buyKeys)
		return err
	})
}

// Login finds the user by nickname and checks the password.
func (f *CMP) Login(args *LoginArgs, reply *LoginReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		keys, err := tx.FindWhere("User", "nickname = ?", []sqldb.Value{sqldb.String(args.Nickname)}, "", 0)
		if err != nil || len(keys) == 0 {
			return err
		}
		pw, err := field(tx, "User", keys[0], "password")
		if err != nil {
			return err
		}
		if pw.AsString() == args.Password {
			reply.OK, reply.UserID = true, keys[0].AsInt()
		}
		return nil
	})
}

// StoreBid creates the bid entity and maintains the denormalized counters
// with two single-column CMP stores.
func (f *CMP) StoreBid(args *BidArgs, reply *BidReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		it, err := tx.Load("Item", sqldb.Int(args.ItemID))
		if err != nil {
			return err
		}
		cur, _ := it.Get("max_bid")
		amount := args.Amount
		if amount <= cur.AsFloat() {
			amount = cur.AsFloat() + 1
		}
		if _, err := tx.Create("Bid", []sqldb.Value{
			sqldb.Int(args.ItemID), sqldb.Int(args.UserID), sqldb.Float(amount),
			sqldb.Float(amount * 1.1), sqldb.Int(1), sqldb.Int(12006)}); err != nil {
			return err
		}
		n, _ := it.Get("nb_bids")
		if err := it.Set("nb_bids", sqldb.Int(n.AsInt()+1)); err != nil {
			return err
		}
		if err := it.Set("max_bid", sqldb.Float(amount)); err != nil {
			return err
		}
		reply.Accepted = amount
		return nil
	})
}

// StoreBuyNow creates the purchase and closes the auction.
func (f *CMP) StoreBuyNow(args *BuyNowArgs, _ *BuyNowReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		it, err := tx.Load("Item", sqldb.Int(args.ItemID))
		if err != nil {
			return err
		}
		if _, err := tx.Create("BuyNow", []sqldb.Value{
			sqldb.Int(args.ItemID), sqldb.Int(args.UserID),
			sqldb.Int(args.Qty), sqldb.Int(12005)}); err != nil {
			return err
		}
		return it.Set("end_date", sqldb.Int(12005))
	})
}

// StoreComment creates the comment and updates the rating field.
func (f *CMP) StoreComment(args *CommentArgs, _ *CommentReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		if _, err := tx.Create("Comment", []sqldb.Value{
			sqldb.Int(args.From), sqldb.Int(args.To), sqldb.Int(args.ItemID),
			sqldb.Int(args.Rating), sqldb.String(args.Text)}); err != nil {
			return err
		}
		u, err := tx.Load("User", sqldb.Int(args.To))
		if err != nil {
			return err
		}
		r, _ := u.Get("rating")
		return u.Set("rating", sqldb.Int(r.AsInt()+args.Rating-2))
	})
}

// Sell verifies the seller and creates the item entity.
func (f *CMP) Sell(args *SellArgs, reply *SellReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		if _, err := tx.Load("User", sqldb.Int(args.Seller)); err != nil {
			return err
		}
		pk, err := tx.Create("Item", []sqldb.Value{
			sqldb.String(args.Name), sqldb.String("newly listed"),
			sqldb.Int(args.Seller), sqldb.Int(args.Category), sqldb.Int(args.Region),
			sqldb.Float(args.Price), sqldb.Float(args.Price * 1.2),
			sqldb.Float(args.Price * 2), sqldb.Int(0), sqldb.Float(args.Price),
			sqldb.Int(12000), sqldb.Int(12007)})
		if err != nil {
			return err
		}
		reply.ItemID = pk.AsInt()
		return nil
	})
}

// Register creates the user entity.
func (f *CMP) Register(args *RegisterArgs, reply *RegisterReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		pk, err := tx.Create("User", []sqldb.Value{
			sqldb.String(args.Fname), sqldb.String(args.Lname), sqldb.String(args.Nickname),
			sqldb.String(args.Password), sqldb.Int(args.Region), sqldb.Int(0),
			sqldb.Float(0), sqldb.Int(12000)})
		if err != nil {
			return err
		}
		reply.UserID = pk.AsInt()
		return nil
	})
}

// remote is the EJB presentation tier's Facade: each method is one RMI
// call to the CMP façade.
type remote struct{ rc *rmi.Client }

func (r remote) call(method string, args, reply any) error {
	return r.rc.Call(FacadeName+"."+method, args, reply)
}

func (r remote) Home(a *HomeArgs, re *HomeReply) error { return r.call("Home", a, re) }
func (r remote) Refs(a *RefsArgs, re *RefsReply) error { return r.call("Refs", a, re) }
func (r remote) List(a *ListArgs, re *ListReply) error { return r.call("List", a, re) }
func (r remote) View(a *ItemArgs, re *ViewReply) error { return r.call("View", a, re) }
func (r remote) History(a *ItemArgs, re *HistoryReply) error {
	return r.call("History", a, re)
}
func (r remote) UserInfo(a *UserArgs, re *UserReply) error { return r.call("UserInfo", a, re) }
func (r remote) About(a *UserArgs, re *AboutReply) error   { return r.call("About", a, re) }
func (r remote) Login(a *LoginArgs, re *LoginReply) error  { return r.call("Login", a, re) }
func (r remote) Sell(a *SellArgs, re *SellReply) error     { return r.call("Sell", a, re) }
func (r remote) Register(a *RegisterArgs, re *RegisterReply) error {
	return r.call("Register", a, re)
}
func (r remote) StoreBuyNow(a *BuyNowArgs, re *BuyNowReply) error {
	return r.call("StoreBuyNow", a, re)
}
func (r remote) StoreBid(a *BidArgs, re *BidReply) error { return r.call("StoreBid", a, re) }
func (r remote) StoreComment(a *CommentArgs, re *CommentReply) error {
	return r.call("StoreComment", a, re)
}
