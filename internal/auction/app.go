package auction

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/httpd"
	"repro/internal/servlet"
	"repro/internal/sqldb"
)

// Config selects the locking discipline, as in the bookstore.
type Config struct {
	// Sync moves the short write transactions' locking into the engine.
	// §6.1 predicts (and the harness confirms) it makes no difference on
	// this benchmark: the queries are too short for database lock
	// contention to arise.
	Sync bool
}

// App is the hand-written-SQL auction implementation.
type App struct {
	sc  Scale
	cfg Config
}

// New creates the application.
func New(sc Scale, cfg Config) *App { return &App{sc: sc, cfg: cfg} }

// BasePath is the URL prefix of every auction interaction.
const BasePath = "/rubis/"

// Interactions lists the 26 interaction names in a stable order.
func Interactions() []string {
	return []string{
		"home", "browsecategories", "browseregions", "searchitemsincategory",
		"searchitemsinregion", "browsecategoriesinregion", "viewitem",
		"viewbidhistory", "viewuserinfo", "sellitemform", "registeritem",
		"registeruserform", "registeruser", "buynowauth", "buynow",
		"storebuynow", "putbidauth", "putbid", "storebid", "putcommentauth",
		"putcomment", "storecomment", "aboutmeauth", "aboutme", "login",
		"logout",
	}
}

// Register installs all interaction servlets.
func (a *App) Register(c *servlet.Container) {
	type h = func(*servlet.Context, *httpd.Request) (*httpd.Response, error)
	routes := map[string]h{
		"home":                     a.home,
		"browsecategories":         a.browseCategories,
		"browseregions":            a.browseRegions,
		"searchitemsincategory":    a.searchInCategory,
		"searchitemsinregion":      a.searchInRegion,
		"browsecategoriesinregion": a.browseCategoriesInRegion,
		"viewitem":                 a.viewItem,
		"viewbidhistory":           a.viewBidHistory,
		"viewuserinfo":             a.viewUserInfo,
		"sellitemform":             a.staticForm("Sell an item", "registeritem"),
		"registeritem":             a.registerItem,
		"registeruserform":         a.staticForm("Register", "registeruser"),
		"registeruser":             a.registerUser,
		"buynowauth":               a.staticForm("Buy Now: log in", "buynow"),
		"buynow":                   a.buyNowPage,
		"storebuynow":              a.storeBuyNow,
		"putbidauth":               a.staticForm("Bid: log in", "putbid"),
		"putbid":                   a.putBid,
		"storebid":                 a.storeBid,
		"putcommentauth":           a.staticForm("Comment: log in", "putcomment"),
		"putcomment":               a.putComment,
		"storecomment":             a.storeComment,
		"aboutmeauth":              a.staticForm("About Me: log in", "aboutme"),
		"aboutme":                  a.aboutMe,
		"login":                    a.login,
		"logout":                   a.logout,
	}
	for name, fn := range routes {
		c.Register(BasePath+name, servlet.Func(fn))
	}
}

// ---- row shapes and rendering ----

// ItemRow is one listing entry.
type ItemRow struct {
	ID      int64
	Name    string
	MaxBid  float64
	NBids   int64
	EndDate int64
}

func page(title string, body func(b *strings.Builder)) *httpd.Response {
	resp := httpd.NewResponse()
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body><h1>%s</h1>\n", title, title)
	b.WriteString(`<img src="/img/logo.gif">` + "\n")
	body(&b)
	b.WriteString("</body></html>\n")
	resp.WriteString(b.String())
	return resp
}

func renderListing(b *strings.Builder, items []ItemRow) {
	b.WriteString("<table>\n")
	for _, it := range items {
		fmt.Fprintf(b,
			`<tr><td><img src="/img/item_%d.gif"></td><td><a href="%sviewitem?item=%d">%s</a></td><td>$%.2f</td><td>%d bids</td></tr>`+"\n",
			it.ID%64, BasePath, it.ID, it.Name, it.MaxBid, it.NBids)
	}
	b.WriteString("</table>\n")
}

func itemRows(res *sqldb.Result) []ItemRow {
	out := make([]ItemRow, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, ItemRow{ID: r[0].AsInt(), Name: r[1].AsString(),
			MaxBid: r[2].AsFloat(), NBids: r[3].AsInt(), EndDate: r[4].AsInt()})
	}
	return out
}

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

const listSQL = `SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE %s = ? ORDER BY end_date LIMIT 20`

// ---- the twenty-six interactions ----

func (a *App) home(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	res, err := ctx.DB.Exec("SELECT COUNT(*) FROM items")
	if err != nil {
		return nil, err
	}
	n := res.Rows[0][0].AsInt()
	return page("RUBiS Auction", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>%d items for sale.</p>\n", n)
		fmt.Fprintf(b, `<p><a href="%sbrowsecategories">Browse categories</a> <a href="%sbrowseregions">Browse regions</a></p>`+"\n", BasePath, BasePath)
	}), nil
}

func (a *App) browseCategories(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	res, err := ctx.DB.Exec("SELECT id, name FROM categories ORDER BY id")
	if err != nil {
		return nil, err
	}
	return page("Categories", func(b *strings.Builder) {
		for _, r := range res.Rows {
			fmt.Fprintf(b, `<p><a href="%ssearchitemsincategory?category=%d">%s</a></p>`+"\n",
				BasePath, r[0].AsInt(), r[1].AsString())
		}
	}), nil
}

func (a *App) browseRegions(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	res, err := ctx.DB.Exec("SELECT id, name FROM regions ORDER BY id")
	if err != nil {
		return nil, err
	}
	return page("Regions", func(b *strings.Builder) {
		for _, r := range res.Rows {
			fmt.Fprintf(b, `<p><a href="%sbrowsecategoriesinregion?region=%d">%s</a></p>`+"\n",
				BasePath, r[0].AsInt(), r[1].AsString())
		}
	}), nil
}

func (a *App) browseCategoriesInRegion(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	region := intParam(req, "region", 1)
	res, err := ctx.DB.Exec("SELECT id, name FROM categories ORDER BY id")
	if err != nil {
		return nil, err
	}
	return page("Categories in region", func(b *strings.Builder) {
		for _, r := range res.Rows {
			fmt.Fprintf(b, `<p><a href="%ssearchitemsinregion?region=%d&category=%d">%s</a></p>`+"\n",
				BasePath, region, r[0].AsInt(), r[1].AsString())
		}
	}), nil
}

func (a *App) searchInCategory(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	cat := intParam(req, "category", 1)
	res, err := ctx.DB.Exec(fmt.Sprintf(listSQL, "category_id"), sqldb.Int(cat))
	if err != nil {
		return nil, err
	}
	items := itemRows(res)
	return page("Items in category", func(b *strings.Builder) { renderListing(b, items) }), nil
}

func (a *App) searchInRegion(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	region := intParam(req, "region", 1)
	cat := intParam(req, "category", 1)
	res, err := ctx.DB.Exec(
		`SELECT id, name, max_bid, nb_bids, end_date FROM items
		 WHERE region_id = ? AND category_id = ? ORDER BY end_date LIMIT 20`,
		sqldb.Int(region), sqldb.Int(cat))
	if err != nil {
		return nil, err
	}
	items := itemRows(res)
	return page("Items in region", func(b *strings.Builder) { renderListing(b, items) }), nil
}

func (a *App) viewItem(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	id := intParam(req, "item", 1)
	res, err := ctx.DB.Exec(
		`SELECT i.name, i.description, i.max_bid, i.nb_bids, i.buy_now, u.nickname
		 FROM items i JOIN users u ON u.id = i.seller_id WHERE i.id = ?`, sqldb.Int(id))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return httpd.Error(404, "no such item"), nil
	}
	r := res.Rows[0]
	return page("Item: "+r[0].AsString(), func(b *strings.Builder) {
		fmt.Fprintf(b, `<img src="/img/item_%d.gif"><p>%s</p><p>Current bid $%.2f (%d bids), buy now $%.2f, seller %s</p>`+"\n",
			id%64, r[1].AsString(), r[2].AsFloat(), r[3].AsInt(), r[4].AsFloat(), r[5].AsString())
		fmt.Fprintf(b, `<p><a href="%sputbidauth?item=%d">Bid</a> <a href="%sviewbidhistory?item=%d">History</a></p>`+"\n",
			BasePath, id, BasePath, id)
	}), nil
}

func (a *App) viewBidHistory(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	id := intParam(req, "item", 1)
	res, err := ctx.DB.Exec(
		`SELECT b.bid, b.bid_date, u.nickname FROM bids b
		 JOIN users u ON u.id = b.user_id
		 WHERE b.item_id = ? ORDER BY b.bid DESC LIMIT 20`, sqldb.Int(id))
	if err != nil {
		return nil, err
	}
	return page("Bid history", func(b *strings.Builder) {
		for _, r := range res.Rows {
			fmt.Fprintf(b, "<p>$%.2f by %s</p>\n", r[0].AsFloat(), r[2].AsString())
		}
	}), nil
}

func (a *App) viewUserInfo(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	id := intParam(req, "user", 1)
	ures, err := ctx.DB.Exec("SELECT nickname, rating, creation FROM users WHERE id = ?", sqldb.Int(id))
	if err != nil {
		return nil, err
	}
	if len(ures.Rows) == 0 {
		return httpd.Error(404, "no such user"), nil
	}
	cres, err := ctx.DB.Exec(
		`SELECT c.rating, c.comment, u.nickname FROM comments c
		 JOIN users u ON u.id = c.from_user
		 WHERE c.to_user = ? ORDER BY c.id DESC LIMIT 10`, sqldb.Int(id))
	if err != nil {
		return nil, err
	}
	u := ures.Rows[0]
	return page("User "+u[0].AsString(), func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Rating %d, member since %d</p>\n", u[1].AsInt(), u[2].AsInt())
		for _, r := range cres.Rows {
			fmt.Fprintf(b, "<p>[%d] %s — %s</p>\n", r[0].AsInt(), r[1].AsString(), r[2].AsString())
		}
	}), nil
}

// staticForm renders the login/registration forms that involve no database
// access.
func (a *App) staticForm(title, action string) func(*servlet.Context, *httpd.Request) (*httpd.Response, error) {
	return func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
		passthrough := ""
		for _, k := range []string{"item", "user", "to"} {
			if v := req.Form().Get(k); v != "" {
				passthrough += fmt.Sprintf(`<input type="hidden" name=%q value=%q>`, k, v)
			}
		}
		return page(title, func(b *strings.Builder) {
			fmt.Fprintf(b, `<form action="%s%s">%s<input name="nickname"><input name="password" type="password"><input type="submit"></form>`+"\n",
				BasePath, action, passthrough)
		}), nil
	}
}

// registerItem (write): a seller lists a new item.
func (a *App) registerItem(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	f := req.Form()
	name := f.Get("name")
	if name == "" {
		name = "listed item"
	}
	seller := intParam(req, "seller", 1)
	cat := intParam(req, "category", 1)
	region := intParam(req, "region", 1)
	price := float64(intParam(req, "price", 10))
	var itemID int64
	err := ctx.WithLocks(a.cfg.Sync,
		[]servlet.TableLock{{Table: "items", Write: true}, {Table: "users"}},
		func(ex sqldb.Execer) error {
			// Sellers pay a listing fee (§3.2): verify the account exists.
			if _, err := ex.Exec("SELECT balance FROM users WHERE id = ?", sqldb.Int(seller)); err != nil {
				return err
			}
			res, err := ex.Exec(
				`INSERT INTO items (name, description, seller_id, category_id, region_id,
					init_price, reserve, buy_now, nb_bids, max_bid, start_date, end_date)
				 VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0, ?, 12000, 12007)`,
				sqldb.String(name), sqldb.String("newly listed"), sqldb.Int(seller),
				sqldb.Int(cat), sqldb.Int(region), sqldb.Float(price),
				sqldb.Float(price*1.2), sqldb.Float(price*2), sqldb.Float(price))
			if err != nil {
				return err
			}
			itemID = res.LastInsertID
			return nil
		})
	if err != nil {
		return nil, err
	}
	return page("Item listed", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Item #%d on sale.</p>\n", itemID)
	}), nil
}

// registerUser (write).
func (a *App) registerUser(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	f := req.Form()
	nick := f.Get("nickname")
	if nick == "" {
		nick = fmt.Sprintf("nick%d", intParam(req, "seed", 1))
	}
	var uid int64
	err := ctx.WithLocks(a.cfg.Sync, []servlet.TableLock{{Table: "users", Write: true}},
		func(ex sqldb.Execer) error {
			res, err := ex.Exec(
				`INSERT INTO users (fname, lname, nickname, password, region_id, rating, balance, creation)
				 VALUES (?, ?, ?, ?, ?, 0, 0, 12000)`,
				sqldb.String(f.Get("fname")), sqldb.String(f.Get("lname")),
				sqldb.String(nick), sqldb.String(f.Get("password")),
				sqldb.Int(intParam(req, "region", 1)))
			if err != nil {
				return err
			}
			uid = res.LastInsertID
			return nil
		})
	if err != nil {
		return nil, err
	}
	return page("Registered", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>User #%d (%s) created.</p>\n", uid, nick)
	}), nil
}

// buyNowPage (read): the pre-purchase view.
func (a *App) buyNowPage(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	return a.viewItem(ctx, req)
}

// storeBuyNow (write): direct purchase.
func (a *App) storeBuyNow(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	item := intParam(req, "item", 1)
	buyer := intParam(req, "user", 1)
	qty := intParam(req, "qty", 1)
	err := ctx.WithLocks(a.cfg.Sync,
		[]servlet.TableLock{{Table: "buy_now", Write: true}, {Table: "items", Write: true}},
		func(ex sqldb.Execer) error {
			if _, err := ex.Exec("SELECT buy_now FROM items WHERE id = ?", sqldb.Int(item)); err != nil {
				return err
			}
			if _, err := ex.Exec(
				"INSERT INTO buy_now (item_id, buyer_id, qty, bn_date) VALUES (?, ?, ?, 12005)",
				sqldb.Int(item), sqldb.Int(buyer), sqldb.Int(qty)); err != nil {
				return err
			}
			_, err := ex.Exec("UPDATE items SET end_date = 12005 WHERE id = ?", sqldb.Int(item))
			return err
		})
	if err != nil {
		return nil, err
	}
	return page("Purchase complete", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Item %d bought by user %d.</p>\n", item, buyer)
	}), nil
}

// putBid (read): item + current bids before bidding.
func (a *App) putBid(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	return a.viewItem(ctx, req)
}

// storeBid (write): the canonical short write transaction of the
// benchmark — insert the bid and maintain the denormalized counters.
func (a *App) storeBid(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	item := intParam(req, "item", 1)
	user := intParam(req, "user", 1)
	bid := float64(intParam(req, "bid", 0))
	err := ctx.WithLocks(a.cfg.Sync,
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
				sqldb.Int(item), sqldb.Int(user), sqldb.Float(bid), sqldb.Float(bid*1.1)); err != nil {
				return err
			}
			_, err = ex.Exec(
				"UPDATE items SET nb_bids = nb_bids + 1, max_bid = ? WHERE id = ?",
				sqldb.Float(bid), sqldb.Int(item))
			return err
		})
	if err != nil {
		return nil, err
	}
	return page("Bid stored", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Bid $%.2f on item %d by user %d.</p>\n", bid, item, user)
	}), nil
}

// putComment (read): the target user's info before commenting.
func (a *App) putComment(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	return a.viewUserInfo(ctx, req)
}

// storeComment (write): insert the comment and update the rating.
func (a *App) storeComment(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	from := intParam(req, "user", 1)
	to := intParam(req, "to", 1)
	rating := intParam(req, "rating", 3)
	err := ctx.WithLocks(a.cfg.Sync,
		[]servlet.TableLock{{Table: "comments", Write: true}, {Table: "users", Write: true}},
		func(ex sqldb.Execer) error {
			if _, err := ex.Exec(
				`INSERT INTO comments (from_user, to_user, item_id, rating, comment)
				 VALUES (?, ?, ?, ?, ?)`,
				sqldb.Int(from), sqldb.Int(to), sqldb.Int(intParam(req, "item", 1)),
				sqldb.Int(rating), sqldb.String(req.Form().Get("comment"))); err != nil {
				return err
			}
			_, err := ex.Exec("UPDATE users SET rating = rating + ? WHERE id = ?",
				sqldb.Int(rating-2), sqldb.Int(to))
			return err
		})
	if err != nil {
		return nil, err
	}
	return page("Comment stored", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Comment from %d to %d.</p>\n", from, to)
	}), nil
}

// aboutMe (read): the myEbay page — the benchmark's heaviest read.
func (a *App) aboutMe(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	uid := intParam(req, "user", 1)
	ures, err := ctx.DB.Exec("SELECT nickname, rating FROM users WHERE id = ?", sqldb.Int(uid))
	if err != nil {
		return nil, err
	}
	if len(ures.Rows) == 0 {
		return httpd.Error(404, "no such user"), nil
	}
	bres, err := ctx.DB.Exec(
		`SELECT b.bid, i.name FROM bids b JOIN items i ON i.id = b.item_id
		 WHERE b.user_id = ? ORDER BY b.id DESC LIMIT 10`, sqldb.Int(uid))
	if err != nil {
		return nil, err
	}
	sres, err := ctx.DB.Exec(
		"SELECT id, name, max_bid, nb_bids, end_date FROM items WHERE seller_id = ? LIMIT 10",
		sqldb.Int(uid))
	if err != nil {
		return nil, err
	}
	bnres, err := ctx.DB.Exec(
		"SELECT item_id, qty FROM buy_now WHERE buyer_id = ? LIMIT 10", sqldb.Int(uid))
	if err != nil {
		return nil, err
	}
	selling := itemRows(sres)
	u := ures.Rows[0]
	return page("About "+u[0].AsString(), func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Rating %d</p><h2>My bids</h2>\n", u[1].AsInt())
		for _, r := range bres.Rows {
			fmt.Fprintf(b, "<p>$%.2f on %s</p>\n", r[0].AsFloat(), r[1].AsString())
		}
		b.WriteString("<h2>Selling</h2>\n")
		renderListing(b, selling)
		fmt.Fprintf(b, "<p>%d buy-now purchases</p>\n", len(bnres.Rows))
	}), nil
}

// login (read): nickname/password check.
func (a *App) login(ctx *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
	if ctx.DB == nil {
		return nil, servlet.ErrNoDatabase
	}
	nick := req.Form().Get("nickname")
	res, err := ctx.DB.Exec("SELECT id, password FROM users WHERE nickname = ?", sqldb.String(nick))
	if err != nil {
		return nil, err
	}
	ok := len(res.Rows) > 0 && res.Rows[0][1].AsString() == req.Form().Get("password")
	return page("Login", func(b *strings.Builder) {
		if ok {
			fmt.Fprintf(b, "<p>Welcome user #%d</p>\n", res.Rows[0][0].AsInt())
		} else {
			b.WriteString("<p>Invalid credentials.</p>\n")
		}
	}), nil
}

// logout involves no database access.
func (a *App) logout(*servlet.Context, *httpd.Request) (*httpd.Response, error) {
	return page("Logged out", func(b *strings.Builder) {
		b.WriteString("<p>Goodbye.</p>\n")
	}), nil
}
