package auction

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/httpd"
	"repro/internal/rmi"
	"repro/internal/servlet"
)

// Config selects the locking discipline, as in the bookstore.
type Config struct {
	// Sync moves the short write transactions' locking into the engine.
	// §6.1 predicts (and the harness confirms) it makes no difference on
	// this benchmark: the queries are too short for database lock
	// contention to arise.
	Sync bool
}

// App is the auction site's presentation: one servlet per interaction,
// each reading its parameters, calling the Facade and rendering the page.
// Every architecture serves these same pages; they differ in the Facade
// behind them — the hand-written SQL one (New) or the CMP session bean
// reached over RMI (NewRemote).
type App struct {
	facade func(*servlet.Context) Facade
}

// New creates the application over the hand-written SQL façade, bound to
// the hosting container's context (the PHP and servlet architectures).
func New(cfg Config) *App {
	return &App{facade: func(ctx *servlet.Context) Facade { return sqlFacade{ctx: ctx, sync: cfg.Sync} }}
}

// NewRemote creates the application over the CMP façade reached through
// rc: the EJB architecture's presentation tier.
func NewRemote(rc *rmi.Client) *App {
	f := remote{rc}
	return &App{facade: func(*servlet.Context) Facade { return f }}
}

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

// handler is one interaction's presentation over a façade.
type handler = func(f Facade, req *httpd.Request) (*httpd.Response, error)

// Register installs all interaction servlets.
func (a *App) Register(c *servlet.Container) {
	routes := map[string]handler{
		"home": home,
		"browsecategories": refList("Categories", false, func(*httpd.Request) string {
			return BasePath + "searchitemsincategory?category="
		}),
		"browseregions": refList("Regions", true, func(*httpd.Request) string {
			return BasePath + "browsecategoriesinregion?region="
		}),
		"browsecategoriesinregion": refList("Categories in region", false, func(req *httpd.Request) string {
			return fmt.Sprintf("%ssearchitemsinregion?region=%d&category=", BasePath, intParam(req, "region", 1))
		}),
		"searchitemsincategory": listing("Items in category", false),
		"searchitemsinregion":   listing("Items in region", true),
		"viewitem":              viewItem,
		"viewbidhistory":        viewBidHistory,
		"viewuserinfo":          viewUserInfo,
		"sellitemform":          staticForm("Sell an item", "registeritem"),
		"registeritem":          registerItem,
		"registeruserform":      staticForm("Register", "registeruser"),
		"registeruser":          registerUser,
		"buynowauth":            staticForm("Buy Now: log in", "buynow"),
		"buynow":                viewItem, // the pre-purchase view
		"storebuynow":           storeBuyNow,
		"putbidauth":            staticForm("Bid: log in", "putbid"),
		"putbid":                viewItem, // item and current bids before bidding
		"storebid":              storeBid,
		"putcommentauth":        staticForm("Comment: log in", "putcomment"),
		"putcomment":            viewUserInfo, // the target user before commenting
		"storecomment":          storeComment,
		"aboutmeauth":           staticForm("About Me: log in", "aboutme"),
		"aboutme":               aboutMe,
		"login":                 login,
		"logout":                logout,
	}
	f := a.facade(c.Context())
	for name, fn := range routes {
		fn := fn
		c.Register(BasePath+name, servlet.Func(func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
			return fn(f, req)
		}))
	}
}

// ---- rendering ----

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

// ---- the twenty-six interactions ----

func home(f Facade, _ *httpd.Request) (*httpd.Response, error) {
	var r HomeReply
	if err := f.Home(&HomeArgs{}, &r); err != nil {
		return nil, err
	}
	return page("RUBiS Auction", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>%d items for sale.</p>\n", r.Items)
		fmt.Fprintf(b, `<p><a href="%sbrowsecategories">Browse categories</a> <a href="%sbrowseregions">Browse regions</a></p>`+"\n", BasePath, BasePath)
	}), nil
}

// refList renders the categories (or regions), each linking to the
// request's link prefix followed by its id.
func refList(title string, regions bool, link func(req *httpd.Request) string) handler {
	return func(f Facade, req *httpd.Request) (*httpd.Response, error) {
		var r RefsReply
		if err := f.Refs(&RefsArgs{Regions: regions}, &r); err != nil {
			return nil, err
		}
		prefix := link(req)
		return page(title, func(b *strings.Builder) {
			for _, ref := range r.Refs {
				fmt.Fprintf(b, `<p><a href="%s%d">%s</a></p>`+"\n", prefix, ref.ID, ref.Name)
			}
		}), nil
	}
}

// listing renders the items in a category, or in a category and region.
func listing(title string, inRegion bool) handler {
	return func(f Facade, req *httpd.Request) (*httpd.Response, error) {
		args := ListArgs{Category: intParam(req, "category", 1), InRegion: inRegion}
		if inRegion {
			args.Region = intParam(req, "region", 1)
		}
		var r ListReply
		if err := f.List(&args, &r); err != nil {
			return nil, err
		}
		return page(title, func(b *strings.Builder) { renderListing(b, r.Items) }), nil
	}
}

func viewItem(f Facade, req *httpd.Request) (*httpd.Response, error) {
	id := intParam(req, "item", 1)
	var r ViewReply
	if err := f.View(&ItemArgs{ItemID: id}, &r); err != nil {
		return nil, err
	}
	if !r.Found {
		return httpd.Error(404, "no such item"), nil
	}
	return page("Item: "+r.Name, func(b *strings.Builder) {
		fmt.Fprintf(b, `<img src="/img/item_%d.gif"><p>%s</p><p>Current bid $%.2f (%d bids), buy now $%.2f, seller %s</p>`+"\n",
			id%64, r.Descr, r.MaxBid, r.NBids, r.BuyNow, r.Seller)
		fmt.Fprintf(b, `<p><a href="%sputbidauth?item=%d">Bid</a> <a href="%sviewbidhistory?item=%d">History</a></p>`+"\n",
			BasePath, id, BasePath, id)
	}), nil
}

func viewBidHistory(f Facade, req *httpd.Request) (*httpd.Response, error) {
	var r HistoryReply
	if err := f.History(&ItemArgs{ItemID: intParam(req, "item", 1)}, &r); err != nil {
		return nil, err
	}
	return page("Bid history", func(b *strings.Builder) {
		for _, bid := range r.Bids {
			fmt.Fprintf(b, "<p>$%.2f by %s</p>\n", bid.Amount, bid.Name)
		}
	}), nil
}

func viewUserInfo(f Facade, req *httpd.Request) (*httpd.Response, error) {
	var r UserReply
	if err := f.UserInfo(&UserArgs{UserID: intParam(req, "user", 1)}, &r); err != nil {
		return nil, err
	}
	if !r.Found {
		return httpd.Error(404, "no such user"), nil
	}
	return page("User "+r.Nickname, func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Rating %d, member since %d</p>\n", r.Rating, r.Creation)
		for _, c := range r.Comments {
			fmt.Fprintf(b, "<p>[%d] %s — %s</p>\n", c.Rating, c.Text, c.Author)
		}
	}), nil
}

// staticForm renders the login/registration forms that involve no database
// access.
func staticForm(title, action string) handler {
	return func(_ Facade, req *httpd.Request) (*httpd.Response, error) {
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
func registerItem(f Facade, req *httpd.Request) (*httpd.Response, error) {
	name := req.Form().Get("name")
	if name == "" {
		name = "listed item"
	}
	var r SellReply
	if err := f.Sell(&SellArgs{Name: name, Seller: intParam(req, "seller", 1),
		Category: intParam(req, "category", 1), Region: intParam(req, "region", 1),
		Price: float64(intParam(req, "price", 10))}, &r); err != nil {
		return nil, err
	}
	return page("Item listed", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Item #%d on sale.</p>\n", r.ItemID)
	}), nil
}

// registerUser (write): a nickname is required.
func registerUser(f Facade, req *httpd.Request) (*httpd.Response, error) {
	form := req.Form()
	nick := form.Get("nickname")
	if nick == "" {
		return httpd.Error(400, "nickname required"), nil
	}
	var r RegisterReply
	if err := f.Register(&RegisterArgs{Nickname: nick, Fname: form.Get("fname"),
		Lname: form.Get("lname"), Password: form.Get("password"),
		Region: intParam(req, "region", 1)}, &r); err != nil {
		return nil, err
	}
	return page("Registered", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>User #%d (%s) created.</p>\n", r.UserID, nick)
	}), nil
}

// storeBuyNow (write): direct purchase.
func storeBuyNow(f Facade, req *httpd.Request) (*httpd.Response, error) {
	args := BuyNowArgs{ItemID: intParam(req, "item", 1), UserID: intParam(req, "user", 1),
		Qty: intParam(req, "qty", 1)}
	if err := f.StoreBuyNow(&args, &BuyNowReply{}); err != nil {
		return nil, err
	}
	return page("Purchase complete", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Item %d bought by user %d.</p>\n", args.ItemID, args.UserID)
	}), nil
}

// storeBid (write): the canonical short write transaction of the
// benchmark — insert the bid and maintain the denormalized counters.
func storeBid(f Facade, req *httpd.Request) (*httpd.Response, error) {
	args := BidArgs{ItemID: intParam(req, "item", 1), UserID: intParam(req, "user", 1),
		Amount: float64(intParam(req, "bid", 0))}
	var r BidReply
	if err := f.StoreBid(&args, &r); err != nil {
		return nil, err
	}
	return page("Bid stored", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Bid $%.2f on item %d by user %d.</p>\n", r.Accepted, args.ItemID, args.UserID)
	}), nil
}

// storeComment (write): insert the comment and update the rating.
func storeComment(f Facade, req *httpd.Request) (*httpd.Response, error) {
	args := CommentArgs{From: intParam(req, "user", 1), To: intParam(req, "to", 1),
		ItemID: intParam(req, "item", 1), Rating: intParam(req, "rating", 3),
		Text: req.Form().Get("comment")}
	if err := f.StoreComment(&args, &CommentReply{}); err != nil {
		return nil, err
	}
	return page("Comment stored", func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Comment from %d to %d.</p>\n", args.From, args.To)
	}), nil
}

// aboutMe (read): the myEbay page — the benchmark's heaviest read.
func aboutMe(f Facade, req *httpd.Request) (*httpd.Response, error) {
	var r AboutReply
	if err := f.About(&UserArgs{UserID: intParam(req, "user", 1)}, &r); err != nil {
		return nil, err
	}
	if !r.Found {
		return httpd.Error(404, "no such user"), nil
	}
	return page("About "+r.Nickname, func(b *strings.Builder) {
		fmt.Fprintf(b, "<p>Rating %d</p><h2>My bids</h2>\n", r.Rating)
		for _, bid := range r.Bids {
			fmt.Fprintf(b, "<p>$%.2f on %s</p>\n", bid.Amount, bid.Name)
		}
		b.WriteString("<h2>Selling</h2>\n")
		renderListing(b, r.Selling)
		fmt.Fprintf(b, "<p>%d buy-now purchases</p>\n", r.BuyNows)
	}), nil
}

// login (read): nickname/password check.
func login(f Facade, req *httpd.Request) (*httpd.Response, error) {
	var r LoginReply
	if err := f.Login(&LoginArgs{Nickname: req.Form().Get("nickname"),
		Password: req.Form().Get("password")}, &r); err != nil {
		return nil, err
	}
	return page("Login", func(b *strings.Builder) {
		if r.OK {
			fmt.Fprintf(b, "<p>Welcome user #%d</p>\n", r.UserID)
		} else {
			b.WriteString("<p>Invalid credentials.</p>\n")
		}
	}), nil
}

// logout involves no database access.
func logout(Facade, *httpd.Request) (*httpd.Response, error) {
	return page("Logged out", func(b *strings.Builder) {
		b.WriteString("<p>Goodbye.</p>\n")
	}), nil
}
