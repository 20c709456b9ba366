package auction

import (
	"fmt"

	"repro/internal/servlet"
	"repro/internal/sqldb"
)

// Facade is the auction's business logic, one method per kind of page:
// the presentation fills the arguments from the request and renders the
// reply. It has three implementations — the hand-written SQL one
// (sqlFacade: the PHP and servlet architectures), the CMP session bean
// (CMP: the EJB architecture's façade, served over RMI) and the RMI stub
// the EJB presentation tier calls it through (remote). Every method has
// the RMI shape Method(*Args, *Reply) error.
type Facade interface {
	Home(*HomeArgs, *HomeReply) error
	Refs(*RefsArgs, *RefsReply) error
	List(*ListArgs, *ListReply) error
	View(*ItemArgs, *ViewReply) error
	History(*ItemArgs, *HistoryReply) error
	UserInfo(*UserArgs, *UserReply) error
	About(*UserArgs, *AboutReply) error
	Login(*LoginArgs, *LoginReply) error
	Sell(*SellArgs, *SellReply) error
	Register(*RegisterArgs, *RegisterReply) error
	StoreBuyNow(*BuyNowArgs, *BuyNowReply) error
	StoreBid(*BidArgs, *BidReply) error
	StoreComment(*CommentArgs, *CommentReply) error
}

// ---- arguments and replies ----

// HomeArgs / HomeReply serve the home page: the number of items.
type HomeArgs struct{}
type HomeReply struct{ Items int64 }

// RefsArgs selects the categories, or the regions with Regions.
type RefsArgs struct{ Regions bool }

// RefsReply lists them by id.
type RefsReply struct{ Refs []Ref }

// Ref is one category or region.
type Ref struct {
	ID   int64
	Name string
}

// ListArgs selects a listing page: the items of a category, in a region
// too when InRegion.
type ListArgs struct {
	Category int64
	Region   int64
	InRegion bool
}

// ListReply carries listing rows.
type ListReply struct{ Items []ItemRow }

// ItemRow is one listing entry.
type ItemRow struct {
	ID     int64
	Name   string
	MaxBid float64
	NBids  int64
}

// ItemArgs names an item; UserArgs a user.
type ItemArgs struct{ ItemID int64 }
type UserArgs struct{ UserID int64 }

// ViewReply serves the item page.
type ViewReply struct {
	Found  bool
	Name   string
	Descr  string
	MaxBid float64
	NBids  int64
	BuyNow float64
	Seller string
}

// BidLine is one bid on a page: its amount and the bidder's nickname (bid
// history) or the item's name (about me).
type BidLine struct {
	Amount float64
	Name   string
}

// HistoryReply carries an item's highest bids.
type HistoryReply struct{ Bids []BidLine }

// UserReply serves user info with the recent comments about the user.
type UserReply struct {
	Found    bool
	Nickname string
	Rating   int64
	Creation int64
	Comments []CommentLine
}

// CommentLine is one comment: its rating, text and author's nickname.
type CommentLine struct {
	Rating int64
	Text   string
	Author string
}

// AboutReply serves the myEbay page.
type AboutReply struct {
	Found    bool
	Nickname string
	Rating   int64
	Bids     []BidLine
	Selling  []ItemRow
	BuyNows  int
}

// LoginArgs / LoginReply check a nickname and password.
type LoginArgs struct{ Nickname, Password string }
type LoginReply struct {
	OK     bool
	UserID int64
}

// SellArgs / SellReply list a new item.
type SellArgs struct {
	Name     string
	Seller   int64
	Category int64
	Region   int64
	Price    float64
}
type SellReply struct{ ItemID int64 }

// RegisterArgs / RegisterReply create a user.
type RegisterArgs struct {
	Nickname, Fname, Lname, Password string
	Region                           int64
}
type RegisterReply struct{ UserID int64 }

// BuyNowArgs / BuyNowReply store a direct purchase.
type BuyNowArgs struct {
	ItemID int64
	UserID int64
	Qty    int64
}
type BuyNowReply struct{}

// BidArgs / BidReply store a bid; Accepted is the amount stored.
type BidArgs struct {
	ItemID int64
	UserID int64
	Amount float64
}
type BidReply struct{ Accepted float64 }

// CommentArgs / CommentReply store a comment and rating delta.
type CommentArgs struct {
	From, To, ItemID, Rating int64
	Text                     string
}
type CommentReply struct{}

// ---- the hand-written SQL implementation ----

// sqlFacade runs the hand-written SQL through its container's context:
// reads on its database client, writes under the locking discipline sync
// selects.
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

func itemRows(res *sqldb.Result) []ItemRow {
	out := make([]ItemRow, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, ItemRow{ID: r[0].AsInt(), Name: r[1].AsString(),
			MaxBid: r[2].AsFloat(), NBids: r[3].AsInt()})
	}
	return out
}

const listSQL = `SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE %s = ? ORDER BY end_date LIMIT 20`

func (f sqlFacade) Home(_ *HomeArgs, reply *HomeReply) error {
	res, err := f.exec("SELECT COUNT(*) FROM items")
	if err != nil {
		return err
	}
	reply.Items = res.Rows[0][0].AsInt()
	return nil
}

func (f sqlFacade) Refs(args *RefsArgs, reply *RefsReply) error {
	query := "SELECT id, name FROM categories ORDER BY id"
	if args.Regions {
		query = "SELECT id, name FROM regions ORDER BY id"
	}
	res, err := f.exec(query)
	if err != nil {
		return err
	}
	reply.Refs = make([]Ref, 0, len(res.Rows))
	for _, r := range res.Rows {
		reply.Refs = append(reply.Refs, Ref{ID: r[0].AsInt(), Name: r[1].AsString()})
	}
	return nil
}

func (f sqlFacade) List(args *ListArgs, reply *ListReply) error {
	var res *sqldb.Result
	var err error
	if args.InRegion {
		res, err = f.exec(
			`SELECT id, name, max_bid, nb_bids, end_date FROM items
		 WHERE region_id = ? AND category_id = ? ORDER BY end_date LIMIT 20`,
			sqldb.Int(args.Region), sqldb.Int(args.Category))
	} else {
		res, err = f.exec(fmt.Sprintf(listSQL, "category_id"), sqldb.Int(args.Category))
	}
	if err != nil {
		return err
	}
	reply.Items = itemRows(res)
	return nil
}

func (f sqlFacade) View(args *ItemArgs, reply *ViewReply) error {
	res, err := f.exec(
		`SELECT i.name, i.description, i.max_bid, i.nb_bids, i.buy_now, u.nickname
		 FROM items i JOIN users u ON u.id = i.seller_id WHERE i.id = ?`, sqldb.Int(args.ItemID))
	if err != nil || len(res.Rows) == 0 {
		return err
	}
	r := res.Rows[0]
	*reply = ViewReply{Found: true, Name: r[0].AsString(), Descr: r[1].AsString(),
		MaxBid: r[2].AsFloat(), NBids: r[3].AsInt(), BuyNow: r[4].AsFloat(), Seller: r[5].AsString()}
	return nil
}

func (f sqlFacade) History(args *ItemArgs, reply *HistoryReply) error {
	res, err := f.exec(
		`SELECT b.bid, b.bid_date, u.nickname FROM bids b
		 JOIN users u ON u.id = b.user_id
		 WHERE b.item_id = ? ORDER BY b.bid DESC LIMIT 20`, sqldb.Int(args.ItemID))
	if err != nil {
		return err
	}
	reply.Bids = make([]BidLine, 0, len(res.Rows))
	for _, r := range res.Rows {
		reply.Bids = append(reply.Bids, BidLine{Amount: r[0].AsFloat(), Name: r[2].AsString()})
	}
	return nil
}

func (f sqlFacade) UserInfo(args *UserArgs, reply *UserReply) error {
	ures, err := f.exec("SELECT nickname, rating, creation FROM users WHERE id = ?", sqldb.Int(args.UserID))
	if err != nil || len(ures.Rows) == 0 {
		return err
	}
	cres, err := f.exec(
		`SELECT c.rating, c.comment, u.nickname FROM comments c
		 JOIN users u ON u.id = c.from_user
		 WHERE c.to_user = ? ORDER BY c.id DESC LIMIT 10`, sqldb.Int(args.UserID))
	if err != nil {
		return err
	}
	u := ures.Rows[0]
	reply.Found, reply.Nickname, reply.Rating, reply.Creation = true, u[0].AsString(), u[1].AsInt(), u[2].AsInt()
	reply.Comments = make([]CommentLine, 0, len(cres.Rows))
	for _, r := range cres.Rows {
		reply.Comments = append(reply.Comments, CommentLine{Rating: r[0].AsInt(), Text: r[1].AsString(), Author: r[2].AsString()})
	}
	return nil
}

func (f sqlFacade) About(args *UserArgs, reply *AboutReply) error {
	uid := args.UserID
	ures, err := f.exec("SELECT nickname, rating FROM users WHERE id = ?", sqldb.Int(uid))
	if err != nil || len(ures.Rows) == 0 {
		return err
	}
	bres, err := f.exec(
		`SELECT b.bid, i.name FROM bids b JOIN items i ON i.id = b.item_id
		 WHERE b.user_id = ? ORDER BY b.id DESC LIMIT 10`, sqldb.Int(uid))
	if err != nil {
		return err
	}
	sres, err := f.exec(
		"SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE seller_id = ? LIMIT 10",
		sqldb.Int(uid))
	if err != nil {
		return err
	}
	bnres, err := f.exec(
		"SELECT item_id, qty FROM buy_now WHERE buyer_id = ? LIMIT 10", sqldb.Int(uid))
	if err != nil {
		return err
	}
	u := ures.Rows[0]
	reply.Found, reply.Nickname, reply.Rating = true, u[0].AsString(), u[1].AsInt()
	reply.Bids = make([]BidLine, 0, len(bres.Rows))
	for _, r := range bres.Rows {
		reply.Bids = append(reply.Bids, BidLine{Amount: r[0].AsFloat(), Name: r[1].AsString()})
	}
	reply.Selling = itemRows(sres)
	reply.BuyNows = len(bnres.Rows)
	return nil
}

func (f sqlFacade) Login(args *LoginArgs, reply *LoginReply) error {
	res, err := f.exec("SELECT id, password FROM users WHERE nickname = ?", sqldb.String(args.Nickname))
	if err != nil {
		return err
	}
	if len(res.Rows) > 0 && res.Rows[0][1].AsString() == args.Password {
		reply.OK, reply.UserID = true, res.Rows[0][0].AsInt()
	}
	return nil
}

func (f sqlFacade) Sell(args *SellArgs, reply *SellReply) error {
	price := args.Price
	return f.ctx.WithLocks(f.sync,
		[]servlet.TableLock{{Table: "items", Write: true}, {Table: "users"}},
		func(ex sqldb.Execer) error {
			// Sellers pay a listing fee (§3.2): verify the account exists.
			if _, err := ex.Exec("SELECT balance FROM users WHERE id = ?", sqldb.Int(args.Seller)); err != nil {
				return err
			}
			res, err := ex.Exec(
				`INSERT INTO items (name, description, seller_id, category_id, region_id,
					init_price, reserve, buy_now, nb_bids, max_bid, start_date, end_date)
				 VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0, ?, 12000, 12007)`,
				sqldb.String(args.Name), sqldb.String("newly listed"), sqldb.Int(args.Seller),
				sqldb.Int(args.Category), sqldb.Int(args.Region), sqldb.Float(price),
				sqldb.Float(price*1.2), sqldb.Float(price*2), sqldb.Float(price))
			if err != nil {
				return err
			}
			reply.ItemID = res.LastInsertID
			return nil
		})
}

func (f sqlFacade) Register(args *RegisterArgs, reply *RegisterReply) error {
	return f.ctx.WithLocks(f.sync, []servlet.TableLock{{Table: "users", Write: true}},
		func(ex sqldb.Execer) error {
			res, err := ex.Exec(
				`INSERT INTO users (fname, lname, nickname, password, region_id, rating, balance, creation)
				 VALUES (?, ?, ?, ?, ?, 0, 0, 12000)`,
				sqldb.String(args.Fname), sqldb.String(args.Lname),
				sqldb.String(args.Nickname), sqldb.String(args.Password),
				sqldb.Int(args.Region))
			if err != nil {
				return err
			}
			reply.UserID = res.LastInsertID
			return nil
		})
}

func (f sqlFacade) StoreBuyNow(args *BuyNowArgs, _ *BuyNowReply) error {
	item := args.ItemID
	return f.ctx.WithLocks(f.sync,
		[]servlet.TableLock{{Table: "buy_now", Write: true}, {Table: "items", Write: true}},
		func(ex sqldb.Execer) error {
			if _, err := ex.Exec("SELECT buy_now FROM items WHERE id = ?", sqldb.Int(item)); err != nil {
				return err
			}
			if _, err := ex.Exec(
				"INSERT INTO buy_now (item_id, buyer_id, qty, bn_date) VALUES (?, ?, ?, 12005)",
				sqldb.Int(item), sqldb.Int(args.UserID), sqldb.Int(args.Qty)); err != nil {
				return err
			}
			_, err := ex.Exec("UPDATE items SET end_date = 12005 WHERE id = ?", sqldb.Int(item))
			return err
		})
}

func (f sqlFacade) StoreBid(args *BidArgs, reply *BidReply) error {
	item, bid := args.ItemID, args.Amount
	return f.ctx.WithLocks(f.sync,
		[]servlet.TableLock{{Table: "bids", Write: true}, {Table: "items", Write: true}},
		func(ex sqldb.Execer) error {
			res, err := ex.Exec("SELECT max_bid FROM items WHERE id = ?", sqldb.Int(item))
			if err != nil {
				return err
			}
			if len(res.Rows) == 0 {
				return fmt.Errorf("auction: no item %d", item)
			}
			cur := res.Rows[0][0].AsFloat()
			if bid <= cur {
				bid = cur + 1
			}
			if _, err := ex.Exec(
				`INSERT INTO bids (item_id, user_id, bid, max_bid, qty, bid_date)
				 VALUES (?, ?, ?, ?, 1, 12006)`,
				sqldb.Int(item), sqldb.Int(args.UserID), sqldb.Float(bid), sqldb.Float(bid*1.1)); err != nil {
				return err
			}
			_, err = ex.Exec(
				"UPDATE items SET nb_bids = nb_bids + 1, max_bid = ? WHERE id = ?",
				sqldb.Float(bid), sqldb.Int(item))
			reply.Accepted = bid
			return err
		})
}

func (f sqlFacade) StoreComment(args *CommentArgs, _ *CommentReply) error {
	return f.ctx.WithLocks(f.sync,
		[]servlet.TableLock{{Table: "comments", Write: true}, {Table: "users", Write: true}},
		func(ex sqldb.Execer) error {
			if _, err := ex.Exec(
				`INSERT INTO comments (from_user, to_user, item_id, rating, comment)
				 VALUES (?, ?, ?, ?, ?)`,
				sqldb.Int(args.From), sqldb.Int(args.To), sqldb.Int(args.ItemID),
				sqldb.Int(args.Rating), sqldb.String(args.Text)); err != nil {
				return err
			}
			_, err := ex.Exec("UPDATE users SET rating = rating + ? WHERE id = ?",
				sqldb.Int(args.Rating-2), sqldb.Int(args.To))
			return err
		})
}
