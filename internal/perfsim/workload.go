package perfsim

// This file defines the simulated workloads: the interaction classes of the
// TPC-W bookstore and the RUBiS-style auction site, with per-class service
// demands and the probability mixes of section 3 of the paper.
//
// Classes aggregate the paper's 14 bookstore / 26 auction interactions into
// the groups that matter for performance (the paper's own analysis reasons
// at this granularity: light reads, heavy reads such as best-sellers and
// search, and short writes vs. lock-holding purchase transactions).

// opStep is one application-level database query inside an interaction.
type opStep struct {
	table    int     // index into workloadSpec.tables
	write    bool    // exclusive (write) table access
	dbCPU    float64 // seconds of database CPU at full speed
	gap      float64 // engine CPU consumed before issuing this query
	extDelay float64 // non-CPU delay before this query (e.g. TPC-W's
	// payment-gateway authorization), spent while any LOCK TABLES
	// acquired by the class are still held
}

// class is one interaction class.
type class struct {
	name string
	// genCPU is the dynamic-content generator's CPU demand per interaction
	// on the servlet engine (PHP scales it by Costs.PHPGenFactor; EJB
	// splits it between presentation and business logic).
	genCPU float64
	// dynBytes is the generated HTML size; staticBytes the embedded images
	// served directly by the web server.
	dynBytes    float64
	staticBytes float64
	// lockTables lists tables the non-sync configurations wrap in
	// LOCK TABLES ... UNLOCK TABLES for this class (empty: none).
	lockTables []int
	// steps are the hand-written queries (PHP/servlet configurations).
	steps []opStep
	// rows is how many result rows the interaction materializes; under
	// container-managed persistence each row costs extra short queries.
	rows int
}

// workloadSpec is a complete benchmark description.
type workloadSpec struct {
	tables  []string
	classes []class
	// mixes maps a Mix to per-class probabilities (summing to 1).
	mixes map[Mix][]float64
	// cmpFinderFactor scales step dbCPU under EJB: auction finder methods
	// return only primary keys (0.5); the bookstore's complex decision-
	// support queries run unchanged (1.0).
	cmpFinderFactor float64
	// cmpRowQueryCPU is database CPU per short CMP row-state query. It is
	// per-benchmark: auction rows are hot single-row primary-key lookups;
	// bookstore rows live in 350 MB tables with wider indexes.
	cmpRowQueryCPU float64
}

// Bookstore tables (section 3.1 names eight; the simulation keeps the five
// that matter for locking: carts is TPC-W's shopping_cart, orders covers
// orders/order_line/credit_info, misc covers authors/countries/address).
const (
	bkItems = iota
	bkOrders
	bkCustomers
	bkCarts
	bkMisc
)

func bookstoreSpec() *workloadSpec {
	s := &workloadSpec{
		tables:          []string{"items", "orders", "customers", "carts", "misc"},
		cmpFinderFactor: 1.0,
		cmpRowQueryCPU:  0.0022,
	}
	ms := func(v float64) float64 { return v / 1000 }
	s.classes = []class{
		{
			name: "home", genCPU: ms(4.0), dynBytes: 4000, staticBytes: 42000, rows: 14,
			steps: []opStep{
				{table: bkItems, dbCPU: ms(12), gap: ms(1.2)},
				{table: bkMisc, dbCPU: ms(8), gap: ms(0.8)},
			},
		},
		{
			name: "search", genCPU: ms(6.0), dynBytes: 6500, staticBytes: 46000, rows: 40,
			steps: []opStep{
				{table: bkItems, dbCPU: ms(180), gap: ms(1.5)},
				{table: bkMisc, dbCPU: ms(40), gap: ms(1.0)},
			},
		},
		{
			name: "bestsellers", genCPU: ms(5.0), dynBytes: 6000, staticBytes: 44000, rows: 50,
			steps: []opStep{
				// The 3,333-order scan joined with items (TPC-W 2.28).
				{table: bkItems, dbCPU: ms(450), gap: ms(1.5)},
			},
		},
		{
			name: "productdetail", genCPU: ms(3.5), dynBytes: 3500, staticBytes: 48000, rows: 4,
			steps: []opStep{
				{table: bkItems, dbCPU: ms(25), gap: ms(1.0)},
			},
		},
		{
			name: "newproducts", genCPU: ms(5.0), dynBytes: 6000, staticBytes: 45000, rows: 45,
			steps: []opStep{
				{table: bkItems, dbCPU: ms(90), gap: ms(1.2)},
			},
		},
		{
			name: "orderinquiry", genCPU: ms(4.0), dynBytes: 4500, staticBytes: 30000, rows: 12,
			steps: []opStep{
				{table: bkCustomers, dbCPU: ms(9), gap: ms(1.0)},
				{table: bkOrders, dbCPU: ms(14), gap: ms(1.0)},
			},
		},
		{
			name: "cartupdate", genCPU: ms(5.0), dynBytes: 4500, staticBytes: 34000, rows: 6,
			lockTables: []int{bkCarts, bkItems},
			steps: []opStep{
				{table: bkItems, dbCPU: ms(15), gap: ms(15)},
				{table: bkCarts, write: true, dbCPU: ms(8), gap: ms(15)},
				{table: bkCarts, dbCPU: ms(8), gap: ms(15)},
			},
		},
		{
			name: "buyconfirm", genCPU: ms(6.0), dynBytes: 5000, staticBytes: 26000, rows: 10,
			lockTables: []int{bkCarts, bkCustomers, bkItems, bkOrders},
			steps: []opStep{
				{table: bkCarts, dbCPU: ms(8), gap: ms(25)},
				{table: bkCustomers, dbCPU: ms(8), gap: ms(25)},
				// TPC-W clause 6.1.5: the purchase contacts the external
				// payment gateway emulator for authorization while its
				// LOCK TABLES grant is held — together with the in-lock
				// script work (cart totalling, order assembly) this is the
				// database-idle time behind the ~70% DB CPU ceiling of
				// Figure 6.
				{table: bkOrders, write: true, dbCPU: ms(10), gap: ms(25), extDelay: 0.4},
				{table: bkOrders, write: true, dbCPU: ms(12), gap: ms(25)},
				{table: bkItems, write: true, dbCPU: ms(10), gap: ms(25)},
				{table: bkOrders, write: true, dbCPU: ms(6), gap: ms(25)},
			},
		},
		{
			name: "register", genCPU: ms(4.0), dynBytes: 3000, staticBytes: 20000, rows: 2,
			lockTables: []int{bkCustomers},
			steps: []opStep{
				{table: bkCustomers, dbCPU: ms(6), gap: ms(1.5)},
				{table: bkCustomers, write: true, dbCPU: ms(10), gap: ms(1.5)},
			},
		},
		{
			name: "adminupdate", genCPU: ms(4.5), dynBytes: 3000, staticBytes: 24000, rows: 2,
			lockTables: []int{bkItems},
			steps: []opStep{
				{table: bkItems, dbCPU: ms(10), gap: ms(20)},
				{table: bkItems, write: true, dbCPU: ms(18), gap: ms(20)},
			},
		},
	}
	// Class order: home, search, bestsellers, productdetail, newproducts,
	// orderinquiry, cartupdate, buyconfirm, register, adminupdate.
	s.mixes = map[Mix][]float64{
		// 95% read-only (TPC-W browsing mix).
		BrowsingMix: {0.26, 0.25, 0.12, 0.21, 0.11, 0.00, 0.02, 0.006, 0.016, 0.008},
		// 80% read-only (TPC-W shopping mix, the representative one).
		ShoppingMix: {0.16, 0.20, 0.046, 0.20, 0.09, 0.104, 0.12, 0.026, 0.04, 0.014},
		// 50% read-only (TPC-W ordering mix: short updates dominate).
		OrderingMix: {0.08, 0.10, 0.02, 0.15, 0.05, 0.10, 0.27, 0.10, 0.09, 0.04},
	}
	return s
}

// Auction tables (section 3.2 lists nine; buy_now/categories/regions fold
// into buynow and misc).
const (
	auItems = iota
	auBids
	auUsers
	auComments
	auBuyNow
	auMisc
)

func auctionSpec() *workloadSpec {
	s := &workloadSpec{
		tables:          []string{"items", "bids", "users", "comments", "buynow", "misc"},
		cmpFinderFactor: 0.5,
		cmpRowQueryCPU:  0.00009,
	}
	ms := func(v float64) float64 { return v / 1000 }
	// Auction locked sections issue their two or three short queries
	// back-to-back (gap 0 inside the lock), so lock hold times stay small
	// and — as the paper observes — the database exhibits no lock
	// contention on this benchmark.
	s.classes = []class{
		{
			name: "browse", genCPU: ms(2.7), dynBytes: 3600, staticBytes: 65000, rows: 20,
			steps: []opStep{
				{table: auMisc, dbCPU: ms(0.9), gap: ms(0.5)},
				{table: auItems, dbCPU: ms(2.0), gap: ms(0.5)},
			},
		},
		{
			name: "viewitem", genCPU: ms(2.4), dynBytes: 3200, staticBytes: 30000, rows: 11,
			steps: []opStep{
				{table: auItems, dbCPU: ms(1.1), gap: ms(0.5)},
				{table: auBids, dbCPU: ms(1.5), gap: ms(0.4)},
			},
		},
		{
			name: "viewuser", genCPU: ms(2.6), dynBytes: 3000, staticBytes: 10000, rows: 11,
			steps: []opStep{
				{table: auUsers, dbCPU: ms(0.9), gap: ms(0.5)},
				{table: auComments, dbCPU: ms(1.5), gap: ms(0.4)},
			},
		},
		{
			name: "search", genCPU: ms(3.0), dynBytes: 3800, staticBytes: 65000, rows: 20,
			steps: []opStep{
				{table: auItems, dbCPU: ms(2.4), gap: ms(0.5)},
				{table: auMisc, dbCPU: ms(0.8), gap: ms(0.5)},
			},
		},
		{
			name: "aboutme", genCPU: ms(6.0), dynBytes: 4200, staticBytes: 12000, rows: 12,
			steps: []opStep{
				{table: auUsers, dbCPU: ms(0.9), gap: ms(0.7)},
				{table: auBids, dbCPU: ms(1.3), gap: ms(0.7)},
				{table: auItems, dbCPU: ms(1.1), gap: ms(0.7)},
				{table: auBuyNow, dbCPU: ms(0.7), gap: ms(0.7)},
			},
		},
		// The write classes run their short query groups back-to-back (no
		// engine work while holding locks), so lock hold times stay tiny and
		// the database exhibits no lock contention on this benchmark (§6.1).
		{
			name: "placebid", genCPU: ms(6.9), dynBytes: 3000, staticBytes: 8000, rows: 3,
			lockTables: []int{auBids, auItems},
			steps: []opStep{
				{table: auItems, dbCPU: ms(1.1)},
				{table: auBids, write: true, dbCPU: ms(1.5)},
				{table: auItems, write: true, dbCPU: ms(1.3)},
			},
		},
		{
			name: "buynow", genCPU: ms(6.2), dynBytes: 2800, staticBytes: 7000, rows: 2,
			lockTables: []int{auBuyNow, auItems},
			steps: []opStep{
				{table: auItems, dbCPU: ms(1.1)},
				{table: auBuyNow, write: true, dbCPU: ms(1.3)},
				{table: auItems, write: true, dbCPU: ms(1.2)},
			},
		},
		{
			name: "comment", genCPU: ms(6.2), dynBytes: 2800, staticBytes: 7000, rows: 2,
			lockTables: []int{auComments, auUsers},
			steps: []opStep{
				{table: auComments, write: true, dbCPU: ms(1.4)},
				{table: auUsers, write: true, dbCPU: ms(1.2)},
			},
		},
		{
			name: "sellitem", genCPU: ms(6.9), dynBytes: 3200, staticBytes: 8000, rows: 2,
			lockTables: []int{auItems},
			steps: []opStep{
				{table: auUsers, dbCPU: ms(0.9)},
				{table: auItems, write: true, dbCPU: ms(1.6)},
			},
		},
		{
			name: "registeruser", genCPU: ms(6.0), dynBytes: 2600, staticBytes: 6000, rows: 2,
			lockTables: []int{auUsers},
			steps: []opStep{
				{table: auUsers, dbCPU: ms(0.8)},
				{table: auUsers, write: true, dbCPU: ms(1.2)},
			},
		},
	}
	// Class order: browse, viewitem, viewuser, search, aboutme, placebid,
	// buynow, comment, sellitem, registeruser.
	s.mixes = map[Mix][]float64{
		// Read-only browsing mix (section 3.2).
		BrowsingMix: {0.30, 0.32, 0.10, 0.20, 0.08, 0, 0, 0, 0, 0},
		// Bidding mix: 15% read-write, the representative auction mix.
		BiddingMix: {0.25, 0.28, 0.09, 0.14, 0.09, 0.09, 0.015, 0.025, 0.015, 0.005},
	}
	return s
}

// specFor returns the workload for a benchmark. Mixes not defined for the
// benchmark (e.g. ShoppingMix on the auction) cause a panic in newRun.
func specFor(b Benchmark) *workloadSpec {
	switch b {
	case Bookstore:
		return bookstoreSpec()
	case Auction:
		return auctionSpec()
	default:
		panic("perfsim: unknown benchmark")
	}
}
