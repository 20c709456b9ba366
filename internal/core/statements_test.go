package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/httpd"
	"repro/internal/httpd/httpclient"
)

// interactionCost is what one request of an interaction costs below the
// presentation: the statements the database tier receives on the SQL path
// (Servlet), and on the EJB path the statements and entity loads the EJB
// container issues.
type interactionCost struct {
	path               string // relative to the base path; "POST:" prefixes a form post
	sql, ejb, ejbLoads int64
}

// The EJB column is the CMP façade's finder-plus-load traffic. Beyond one
// finder and one load per row the page shows, it has the non-entity reads
// DESIGN.md names (home's item count; the category and region lists) and
// the loads that fill every field its page renders (login's user; each
// comment's author; each of a user's bids and its item; bookstore
// buyrequest's customer and address, orderinquiry's customer). The rows
// with a comment are the ones where the CMP façade reads more than a
// façade that leaves those fields blank would.
var statementTables = map[arch.Benchmark][]interactionCost{
	arch.Auction: {
		{"home", 1, 1, 0},             // the item count
		{"browsecategories", 1, 1, 0}, // the category list
		{"browseregions", 1, 1, 0},    // the region list
		{"searchitemsincategory?category=2", 1, 10, 9},
		{"searchitemsinregion?region=1&category=1", 1, 1, 0},
		{"browsecategoriesinregion?region=2", 1, 1, 0}, // the category list
		{"viewitem?item=3", 1, 2, 2},
		{"viewbidhistory?item=3", 1, 5, 4},
		{"viewuserinfo?user=13", 2, 6, 5}, // user, finder, 2 × (comment, author)
		{"sellitemform", 0, 0, 0},
		{"registeritem?seller=2&category=1&region=1&price=50", 4, 2, 1},
		{"registeruserform", 0, 0, 0},
		{"registeruser?nickname=znew1&fname=Z&lname=N&password=pw&region=2", 3, 1, 0},
		{"buynowauth?item=2", 0, 0, 0},
		{"buynow?item=2", 1, 2, 2},
		{"storebuynow?item=2&user=3", 5, 3, 1},
		{"putbidauth?item=4", 0, 0, 0},
		{"putbid?item=4", 1, 2, 2},
		{"storebid?item=4&user=5&bid=900", 5, 4, 1},
		{"putcommentauth?to=3", 0, 0, 0},
		{"putcomment?user=110", 2, 6, 5}, // as viewuserinfo
		{"storecomment?user=2&to=3&rating=5", 4, 3, 1},
		{"aboutmeauth", 0, 0, 0},
		{"aboutme?user=30", 4, 13, 10},                         // user, bid finder, 4 × (bid, item), seller finder, 1 item, buy-now finder
		{"login?nickname=bidder3&password=pwbidder3", 1, 2, 1}, // nickname finder, user
		{"logout", 0, 0, 0},
	},
	arch.Bookstore: {
		{"home?c_id=2", 2, 4, 3},
		{"newproducts?subject=HISTORY", 1, 11, 10},
		{"bestsellers?subject=REFERENCE", 1, 13, 12},
		{"productdetail?i_id=3", 1, 2, 2},
		{"searchrequest", 0, 0, 0},
		{"searchresults?type=author&term=Bi", 1, 16, 14},
		{"shoppingcart?i_id=5&qty=2", 1, 2, 2},
		{"POST:customerregistration?uname=fresh1&passwd=x&fname=A&lname=B&street=S&city=C", 4, 2, 0},
		{"buyrequest?c_id=4", 1, 2, 2}, // customer, address
		{"buyconfirm?c_id=4", 8, 7, 2},
		{"orderinquiry?c_id=4", 1, 1, 1}, // customer
		{"orderdisplay?c_id=4", 2, 5, 3},
		{"adminrequest?i_id=7", 1, 2, 2},
		{"adminconfirm?i_id=7&cost=77", 4, 3, 1},
	},
}

// TestStatementsPerInteraction sends one request of each interaction, in
// order from one client, on the SQL path and on the EJB path, and checks
// the statements (and on the EJB path the entity loads) each one issues
// against the table above.
func TestStatementsPerInteraction(t *testing.T) {
	for b, table := range statementTables {
		b, table := b, table
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			base := "/rubis/"
			if b == arch.Bookstore {
				base = "/tpcw/"
			}
			measure := func(a arch.Arch, tier string) (stmts, loads []int64) {
				lab := startLab(t, a, b)
				c := httpclient.New(lab.WebAddr(), 10*time.Second)
				defer c.Close()
				for _, row := range table {
					before := lab.Telemetry().Tier(tier)
					var resp *httpd.Response
					var err error
					if path, post := strings.CutPrefix(row.path, "POST:"); post {
						path, form, _ := strings.Cut(path, "?")
						resp, err = c.PostForm(base+path, form)
					} else {
						resp, err = c.Get(base + row.path)
					}
					if err != nil || resp.Status != 200 {
						t.Fatalf("%v %s: %v %v", a, row.path, err, resp)
					}
					after := lab.Telemetry().Tier(tier)
					stmts = append(stmts, after.Queries-before.Queries)
					loads = append(loads, after.Loads-before.Loads)
				}
				return stmts, loads
			}
			sql, _ := measure(arch.Servlet, "db")
			ejb, loads := measure(arch.EJB, "ejb")
			var got strings.Builder
			bad := false
			for i, row := range table {
				fmt.Fprintf(&got, "\t\t{%q, %d, %d, %d},\n", row.path, sql[i], ejb[i], loads[i])
				if sql[i] != row.sql || ejb[i] != row.ejb || loads[i] != row.ejbLoads {
					bad = true
					t.Errorf("%s: sql %d ejb %d loads %d, want %d %d %d",
						row.path, sql[i], ejb[i], loads[i], row.sql, row.ejb, row.ejbLoads)
				}
			}
			if bad {
				t.Logf("measured:\n%s", got.String())
			}
		})
	}
}
