package auction

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

// EJB deployment of the auction site: entity beans for the nine tables, a
// stateless session façade (§4.2), and presentation servlets calling it
// over RMI under the same URLs as the direct app.

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

// Facade is the stateless session bean with the auction business logic.
type Facade struct {
	C *ejb.Container
}

// ListArgs selects a listing page; Region 0 means category-only.
type ListArgs struct {
	Category int64
	Region   int64
	Limit    int
}

// ListReply carries listing rows.
type ListReply struct{ Items []ItemRow }

func itemRowOf(tx *ejb.Tx, pk sqldb.Value) (ItemRow, error) {
	it, err := tx.Load("Item", pk)
	if err != nil {
		return ItemRow{}, err
	}
	get := func(f string) sqldb.Value { v, _ := it.Get(f); return v }
	return ItemRow{ID: pk.AsInt(), Name: get("name").AsString(),
		MaxBid: get("max_bid").AsFloat(), NBids: get("nb_bids").AsInt(),
		EndDate: get("end_date").AsInt()}, nil
}

// List is the category/region finder plus per-row activations.
func (f *Facade) List(args *ListArgs, reply *ListReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		var keys []sqldb.Value
		var err error
		if args.Region > 0 {
			keys, err = tx.FindWhere("Item", "region_id = ? AND category_id = ?",
				[]sqldb.Value{sqldb.Int(args.Region), sqldb.Int(args.Category)}, "end_date", args.Limit)
		} else {
			keys, err = tx.FindWhere("Item", "category_id = ?",
				[]sqldb.Value{sqldb.Int(args.Category)}, "end_date", args.Limit)
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

// ViewArgs / ViewReply serve the item page.
type ViewArgs struct{ ItemID int64 }
type ViewReply struct {
	Found  bool
	Name   string
	Descr  string
	MaxBid float64
	NBids  int64
	BuyNow float64
	Seller string
}

// View activates the item and its seller.
func (f *Facade) View(args *ViewArgs, reply *ViewReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		it, err := tx.Load("Item", sqldb.Int(args.ItemID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		get := func(field string) sqldb.Value { v, _ := it.Get(field); return v }
		seller, err := tx.Load("User", get("seller_id"))
		if err != nil {
			return err
		}
		nick, _ := seller.Get("nickname")
		reply.Found = true
		reply.Name = get("name").AsString()
		reply.Descr = get("description").AsString()
		reply.MaxBid = get("max_bid").AsFloat()
		reply.NBids = get("nb_bids").AsInt()
		reply.BuyNow = get("buy_now").AsFloat()
		reply.Seller = nick.AsString()
		return nil
	})
}

// HistoryArgs / HistoryReply serve the bid history.
type HistoryArgs struct{ ItemID int64 }
type HistoryReply struct {
	Bids  []float64
	Users []string
}

// History runs the bids finder and activates each bid and bidder.
func (f *Facade) History(args *HistoryArgs, reply *HistoryReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		keys, err := tx.FindBy("Bid", "item_id", sqldb.Int(args.ItemID), 20)
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
			u, err := tx.Load("User", uid)
			if err != nil {
				return err
			}
			nick, _ := u.Get("nickname")
			reply.Bids = append(reply.Bids, amount.AsFloat())
			reply.Users = append(reply.Users, nick.AsString())
		}
		return nil
	})
}

// UserArgs / UserReply serve user info with recent comments.
type UserArgs struct{ UserID int64 }
type UserReply struct {
	Found    bool
	Nickname string
	Rating   int64
	Comments []string
}

// UserInfo activates the user and each recent comment (plus authors).
func (f *Facade) UserInfo(args *UserArgs, reply *UserReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		u, err := tx.Load("User", sqldb.Int(args.UserID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		nick, _ := u.Get("nickname")
		rating, _ := u.Get("rating")
		reply.Found = true
		reply.Nickname = nick.AsString()
		reply.Rating = rating.AsInt()
		keys, err := tx.FindBy("Comment", "to_user", sqldb.Int(args.UserID), 10)
		if err != nil {
			return err
		}
		for _, ck := range keys {
			c, err := tx.Load("Comment", ck)
			if err != nil {
				return err
			}
			text, _ := c.Get("comment")
			reply.Comments = append(reply.Comments, text.AsString())
		}
		return nil
	})
}

// BidArgs / BidReply store a bid.
type BidArgs struct {
	ItemID int64
	UserID int64
	Amount float64
}
type BidReply struct{ Accepted float64 }

// StoreBid creates the bid entity and maintains the denormalized counters
// with two single-column CMP stores.
func (f *Facade) StoreBid(args *BidArgs, reply *BidReply) error {
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

// BuyNowArgs / BuyNowReply store a direct purchase.
type BuyNowArgs struct {
	ItemID int64
	UserID int64
	Qty    int64
}
type BuyNowReply struct{ OK bool }

// StoreBuyNow creates the purchase and closes the auction.
func (f *Facade) StoreBuyNow(args *BuyNowArgs, reply *BuyNowReply) error {
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
		if err := it.Set("end_date", sqldb.Int(12005)); err != nil {
			return err
		}
		reply.OK = true
		return nil
	})
}

// CommentArgs / CommentReply store a comment and rating delta.
type CommentArgs struct {
	From, To, ItemID, Rating int64
	Text                     string
}
type CommentReply struct{ OK bool }

// StoreComment creates the comment and updates the rating field.
func (f *Facade) StoreComment(args *CommentArgs, reply *CommentReply) error {
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
		if err := u.Set("rating", sqldb.Int(r.AsInt()+args.Rating-2)); err != nil {
			return err
		}
		reply.OK = true
		return nil
	})
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

// Sell verifies the seller and creates the item entity.
func (f *Facade) Sell(args *SellArgs, reply *SellReply) error {
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

// RegisterArgs / RegisterReply create a user.
type RegisterArgs struct {
	Nickname string
	Region   int64
}
type RegisterReply struct{ UserID int64 }

// Register creates the user entity.
func (f *Facade) Register(args *RegisterArgs, reply *RegisterReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		pk, err := tx.Create("User", []sqldb.Value{
			sqldb.String("F"), sqldb.String("L"), sqldb.String(args.Nickname),
			sqldb.String("pw"), sqldb.Int(args.Region), sqldb.Int(0),
			sqldb.Float(0), sqldb.Int(12000)})
		if err != nil {
			return err
		}
		reply.UserID = pk.AsInt()
		return nil
	})
}

// AboutArgs / AboutReply serve the myEbay page.
type AboutArgs struct{ UserID int64 }
type AboutReply struct {
	Found    bool
	Nickname string
	BidCount int
	Selling  []ItemRow
}

// About runs the user's finders and activations.
func (f *Facade) About(args *AboutArgs, reply *AboutReply) error {
	return f.C.RunInTx(func(tx *ejb.Tx) error {
		u, err := tx.Load("User", sqldb.Int(args.UserID))
		if errors.Is(err, ejb.ErrNotFound) {
			return nil
		}
		if err != nil {
			return err
		}
		nick, _ := u.Get("nickname")
		reply.Found = true
		reply.Nickname = nick.AsString()
		bidKeys, err := tx.FindBy("Bid", "user_id", sqldb.Int(args.UserID), 10)
		if err != nil {
			return err
		}
		reply.BidCount = len(bidKeys)
		sellKeys, err := tx.FindBy("Item", "seller_id", sqldb.Int(args.UserID), 10)
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
		return nil
	})
}

// PresentationApp is the servlet-side presentation tier of the EJB
// deployment.
type PresentationApp struct {
	rmi *rmi.Client
	sc  Scale
}

// NewPresentationApp wires the presentation servlets to an RMI client.
func NewPresentationApp(client *rmi.Client, sc Scale) *PresentationApp {
	return &PresentationApp{rmi: client, sc: sc}
}

func (p *PresentationApp) call(method string, args, reply any) error {
	return p.rmi.Call(FacadeName+"."+method, args, reply)
}

// Register installs the 26 presentation servlets under the same URLs.
func (p *PresentationApp) Register(c *servlet.Container) {
	a := &App{sc: p.sc} // reuse the static forms and logout
	type h = func(*servlet.Context, *httpd.Request) (*httpd.Response, error)
	list := func(regionParam bool) h {
		return func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			args := ListArgs{Category: intParam(req, "category", 1), Limit: 20}
			if regionParam {
				args.Region = intParam(req, "region", 1)
			}
			var reply ListReply
			if err := p.call("List", &args, &reply); err != nil {
				return nil, err
			}
			return page("Items", func(b *strings.Builder) { renderListing(b, reply.Items) }), nil
		}
	}
	viewItem := func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
		var reply ViewReply
		id := intParam(req, "item", 1)
		if err := p.call("View", &ViewArgs{ItemID: id}, &reply); err != nil {
			return nil, err
		}
		if !reply.Found {
			return httpd.Error(404, "no such item"), nil
		}
		return page("Item: "+reply.Name, func(b *strings.Builder) {
			fmt.Fprintf(b, `<img src="/img/item_%d.gif"><p>%s</p><p>$%.2f (%d bids), seller %s</p>`+"\n",
				id%64, reply.Descr, reply.MaxBid, reply.NBids, reply.Seller)
		}), nil
	}
	userInfo := func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
		var reply UserReply
		if err := p.call("UserInfo", &UserArgs{UserID: intParam(req, "user", 1)}, &reply); err != nil {
			return nil, err
		}
		if !reply.Found {
			return httpd.Error(404, "no such user"), nil
		}
		return page("User "+reply.Nickname, func(b *strings.Builder) {
			fmt.Fprintf(b, "<p>Rating %d</p>\n", reply.Rating)
			for _, c := range reply.Comments {
				fmt.Fprintf(b, "<p>%s</p>\n", c)
			}
		}), nil
	}
	routes := map[string]h{
		"home": func(_ *servlet.Context, _ *httpd.Request) (*httpd.Response, error) {
			return page("RUBiS Auction (EJB)", func(b *strings.Builder) {
				fmt.Fprintf(b, `<p><a href="%sbrowsecategories">Browse</a></p>`+"\n", BasePath)
			}), nil
		},
		"browsecategories": func(_ *servlet.Context, _ *httpd.Request) (*httpd.Response, error) {
			return page("Categories", func(b *strings.Builder) {
				for i := 1; i <= p.sc.Categories; i++ {
					fmt.Fprintf(b, `<p><a href="%ssearchitemsincategory?category=%d">cat %d</a></p>`+"\n", BasePath, i, i)
				}
			}), nil
		},
		"browseregions": func(_ *servlet.Context, _ *httpd.Request) (*httpd.Response, error) {
			return page("Regions", func(b *strings.Builder) {
				for i := 1; i <= p.sc.Regions; i++ {
					fmt.Fprintf(b, `<p><a href="%sbrowsecategoriesinregion?region=%d">region %d</a></p>`+"\n", BasePath, i, i)
				}
			}), nil
		},
		"browsecategoriesinregion": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			region := intParam(req, "region", 1)
			return page("Categories in region", func(b *strings.Builder) {
				for i := 1; i <= p.sc.Categories; i++ {
					fmt.Fprintf(b, `<p><a href="%ssearchitemsinregion?region=%d&category=%d">cat %d</a></p>`+"\n", BasePath, region, i, i)
				}
			}), nil
		},
		"searchitemsincategory": list(false),
		"searchitemsinregion":   list(true),
		"viewitem":              viewItem,
		"buynow":                viewItem,
		"putbid":                viewItem,
		"viewbidhistory": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			var reply HistoryReply
			if err := p.call("History", &HistoryArgs{ItemID: intParam(req, "item", 1)}, &reply); err != nil {
				return nil, err
			}
			return page("Bid history", func(b *strings.Builder) {
				for i := range reply.Bids {
					fmt.Fprintf(b, "<p>$%.2f by %s</p>\n", reply.Bids[i], reply.Users[i])
				}
			}), nil
		},
		"viewuserinfo": userInfo,
		"putcomment":   userInfo,
		"sellitemform": a.staticForm("Sell an item", "registeritem"),
		"registeritem": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			var reply SellReply
			err := p.call("Sell", &SellArgs{Name: "listed item",
				Seller:   intParam(req, "seller", 1),
				Category: intParam(req, "category", 1),
				Region:   intParam(req, "region", 1),
				Price:    float64(intParam(req, "price", 10))}, &reply)
			if err != nil {
				return nil, err
			}
			return page("Item listed", func(b *strings.Builder) {
				fmt.Fprintf(b, "<p>Item #%d on sale.</p>\n", reply.ItemID)
			}), nil
		},
		"registeruserform": a.staticForm("Register", "registeruser"),
		"registeruser": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			nick := req.Form().Get("nickname")
			if nick == "" {
				nick = fmt.Sprintf("ejbnick%d", intParam(req, "seed", 1))
			}
			var reply RegisterReply
			if err := p.call("Register", &RegisterArgs{Nickname: nick,
				Region: intParam(req, "region", 1)}, &reply); err != nil {
				return nil, err
			}
			return page("Registered", func(b *strings.Builder) {
				fmt.Fprintf(b, "<p>User #%d created.</p>\n", reply.UserID)
			}), nil
		},
		"buynowauth": a.staticForm("Buy Now: log in", "buynow"),
		"storebuynow": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			var reply BuyNowReply
			if err := p.call("StoreBuyNow", &BuyNowArgs{
				ItemID: intParam(req, "item", 1), UserID: intParam(req, "user", 1),
				Qty: intParam(req, "qty", 1)}, &reply); err != nil {
				return nil, err
			}
			return page("Purchase complete", func(b *strings.Builder) {
				fmt.Fprintf(b, "<p>ok=%v</p>\n", reply.OK)
			}), nil
		},
		"putbidauth": a.staticForm("Bid: log in", "putbid"),
		"storebid": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			var reply BidReply
			if err := p.call("StoreBid", &BidArgs{
				ItemID: intParam(req, "item", 1), UserID: intParam(req, "user", 1),
				Amount: float64(intParam(req, "bid", 0))}, &reply); err != nil {
				return nil, err
			}
			return page("Bid stored", func(b *strings.Builder) {
				fmt.Fprintf(b, "<p>Accepted $%.2f</p>\n", reply.Accepted)
			}), nil
		},
		"putcommentauth": a.staticForm("Comment: log in", "putcomment"),
		"storecomment": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			var reply CommentReply
			if err := p.call("StoreComment", &CommentArgs{
				From: intParam(req, "user", 1), To: intParam(req, "to", 1),
				ItemID: intParam(req, "item", 1), Rating: intParam(req, "rating", 3),
				Text: req.Form().Get("comment")}, &reply); err != nil {
				return nil, err
			}
			return page("Comment stored", func(b *strings.Builder) {
				fmt.Fprintf(b, "<p>ok=%v</p>\n", reply.OK)
			}), nil
		},
		"aboutmeauth": a.staticForm("About Me: log in", "aboutme"),
		"aboutme": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			var reply AboutReply
			if err := p.call("About", &AboutArgs{UserID: intParam(req, "user", 1)}, &reply); err != nil {
				return nil, err
			}
			if !reply.Found {
				return httpd.Error(404, "no such user"), nil
			}
			return page("About "+reply.Nickname, func(b *strings.Builder) {
				fmt.Fprintf(b, "<p>%d bids</p>\n", reply.BidCount)
				renderListing(b, reply.Selling)
			}), nil
		},
		"login": func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			return page("Login", func(b *strings.Builder) {
				b.WriteString("<p>Logged in.</p>\n")
			}), nil
		},
		"logout": a.logout,
	}
	for name, fn := range routes {
		c.Register(BasePath+name, servlet.Func(fn))
	}
}
