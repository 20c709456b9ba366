// Package auction implements the paper's auction site benchmark (§3.2), a
// RUBiS-style application modeled on eBay: nine tables, twenty-six
// interactions, and two mixes (read-only browsing; bidding with 15%
// read-write). As with the bookstore, the hand-written SQL layer serves
// both the in-process (PHP-analog) and servlet deployments, and ejb.go
// provides the session-façade/entity-bean variant.
package auction

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/sqldb"
)

// Scale sizes the population. The paper runs 33,000 live items, 500,000
// old items, 1,000,000 users, ~330,000 bids and ~500,000 comments (1.4 GB).
type Scale struct {
	Items      int // live auctions
	OldItems   int
	Users      int
	BidsPer    int // average bids per item
	Comments   int
	Categories int
	Regions    int
}

// DefaultScale is roughly 1/100 of the paper's population.
func DefaultScale() Scale {
	return Scale{Items: 330, OldItems: 5000, Users: 10000, BidsPer: 10,
		Comments: 5000, Categories: 40, Regions: 62}
}

// PaperScale matches §3.2's sizing observations from eBay.
func PaperScale() Scale {
	return Scale{Items: 33000, OldItems: 500000, Users: 1000000, BidsPer: 10,
		Comments: 500000, Categories: 40, Regions: 62}
}

// TinyScale keeps unit tests fast.
func TinyScale() Scale {
	return Scale{Items: 40, OldItems: 60, Users: 120, BidsPer: 3,
		Comments: 50, Categories: 8, Regions: 6}
}

// SchemaSQL returns the DDL for the nine tables (§3.2) plus indexes. The
// items table carries the denormalized bid count and current maximum bid
// the paper calls out as a necessary optimization.
func SchemaSQL() []string {
	return []string{
		`CREATE TABLE categories (
			id INT PRIMARY KEY AUTO_INCREMENT,
			name VARCHAR(50) NOT NULL)`,
		`CREATE TABLE regions (
			id INT PRIMARY KEY AUTO_INCREMENT,
			name VARCHAR(50) NOT NULL)`,
		`CREATE TABLE users (
			id INT PRIMARY KEY AUTO_INCREMENT,
			fname VARCHAR(20),
			lname VARCHAR(20),
			nickname VARCHAR(24) NOT NULL,
			password VARCHAR(20),
			region_id INT,
			rating INT,
			balance FLOAT,
			creation INT)`,
		`CREATE UNIQUE INDEX idx_user_nick ON users (nickname)`,
		`CREATE INDEX idx_user_region ON users (region_id)`,
		`CREATE TABLE items (
			id INT PRIMARY KEY AUTO_INCREMENT,
			name VARCHAR(60) NOT NULL,
			description TEXT,
			seller_id INT NOT NULL,
			category_id INT,
			region_id INT,
			init_price FLOAT,
			reserve FLOAT,
			buy_now FLOAT,
			nb_bids INT,
			max_bid FLOAT,
			start_date INT,
			end_date INT)`,
		`CREATE INDEX idx_item_cat ON items (category_id)`,
		`CREATE INDEX idx_item_region ON items (region_id)`,
		`CREATE INDEX idx_item_seller ON items (seller_id)`,
		`CREATE TABLE old_items (
			id INT PRIMARY KEY,
			name VARCHAR(60),
			seller_id INT,
			category_id INT,
			region_id INT,
			max_bid FLOAT,
			end_date INT)`,
		`CREATE INDEX idx_old_cat ON old_items (category_id)`,
		`CREATE TABLE bids (
			id INT PRIMARY KEY AUTO_INCREMENT,
			item_id INT NOT NULL,
			user_id INT NOT NULL,
			bid FLOAT,
			max_bid FLOAT,
			qty INT,
			bid_date INT)`,
		`CREATE INDEX idx_bid_item ON bids (item_id)`,
		`CREATE INDEX idx_bid_user ON bids (user_id)`,
		`CREATE TABLE buy_now (
			id INT PRIMARY KEY AUTO_INCREMENT,
			item_id INT NOT NULL,
			buyer_id INT NOT NULL,
			qty INT,
			bn_date INT)`,
		`CREATE INDEX idx_bn_buyer ON buy_now (buyer_id)`,
		`CREATE TABLE comments (
			id INT PRIMARY KEY AUTO_INCREMENT,
			from_user INT NOT NULL,
			to_user INT NOT NULL,
			item_id INT,
			rating INT,
			comment TEXT)`,
		`CREATE INDEX idx_comment_to ON comments (to_user)`,
		`CREATE TABLE ids (
			name VARCHAR(20),
			value INT)`,
	}
}

// ShardBy is the benchmark's horizontal partitioning map
// (cluster.Config.ShardBy): the write-heavy auction tables partition by
// the key their hot queries pin on — an item's bids and buy-now
// purchases colocate with the item (strided AUTO_INCREMENT makes an
// item's id congruent to its shard, and bids/buy_now carry that id), and
// a user's feedback colocates by recipient. Everything else (users,
// categories, regions, old_items, the ids counter) replicates to every
// shard as global tables.
func ShardBy() map[string]string {
	return map[string]string{
		"items":    "id",
		"bids":     "item_id",
		"buy_now":  "item_id",
		"comments": "to_user",
	}
}

// CreateSchema applies the DDL.
func CreateSchema(db sqldb.Execer) error {
	for _, q := range SchemaSQL() {
		if _, err := db.Exec(q); err != nil {
			return fmt.Errorf("auction: schema: %w", err)
		}
	}
	return nil
}

// Populate fills the database deterministically at the given scale, in
// multi-row batches (sqldb.InsertBatch). Items carry explicit ids 1…Items
// and their final bid count and maximum bid, computed here as the bids are
// drawn: a sharded tier then holds exactly the unsharded population, each
// item on the shard its id routes to, and no bid costs an UPDATE.
func Populate(db sqldb.Execer, sc Scale, seed int64) error {
	g := datagen.New(seed)
	categories := sqldb.NewInsertBatch(db, "categories", "name")
	for i := 0; i < sc.Categories; i++ {
		if err := categories.Add(sqldb.String(g.Name())); err != nil {
			return err
		}
	}
	regions := sqldb.NewInsertBatch(db, "regions", "name")
	for i := 0; i < sc.Regions; i++ {
		if err := regions.Add(sqldb.String(g.Name())); err != nil {
			return err
		}
	}
	users := sqldb.NewInsertBatch(db, "users",
		"fname", "lname", "nickname", "password", "region_id", "rating", "balance", "creation")
	for i := 0; i < sc.Users; i++ {
		nick := fmt.Sprintf("bidder%d", i+1)
		if err := users.Add(
			sqldb.String(g.Name()), sqldb.String(g.Name()), sqldb.String(nick),
			sqldb.String("pw"+nick), sqldb.Int(int64(1+g.Intn(sc.Regions))),
			sqldb.Int(int64(g.Intn(10))), sqldb.Float(g.Price(0, 500)),
			sqldb.Int(g.Date(12000, 900))); err != nil {
			return err
		}
	}
	const nbBids, maxBid = 9, 10            // positions in an items row
	live := make([][]sqldb.Value, sc.Items) // the items rows, in id order
	for i := range live {
		price := g.Price(1, 200)
		live[i] = []sqldb.Value{
			sqldb.Int(int64(i + 1)), sqldb.String(g.Sentence(3)), sqldb.String(g.Sentence(20)),
			sqldb.Int(int64(1 + g.Intn(sc.Users))), sqldb.Int(int64(1 + g.Intn(sc.Categories))),
			sqldb.Int(int64(1 + g.Intn(sc.Regions))),
			sqldb.Float(price), sqldb.Float(price * 1.2), sqldb.Float(price * 2),
			sqldb.Int(0), sqldb.Float(price), sqldb.Int(12000), sqldb.Int(12007)}
	}
	// Bids over the live items; each one folds into its item's
	// denormalized counters.
	bids := sqldb.NewInsertBatch(db, "bids", "item_id", "user_id", "bid", "max_bid", "qty", "bid_date")
	for i := 0; i < sc.Items*sc.BidsPer; i++ {
		item := live[g.Intn(sc.Items)]
		bid := g.Price(1, 400)
		if err := bids.Add(
			item[0], sqldb.Int(int64(1+g.Intn(sc.Users))),
			sqldb.Float(bid), sqldb.Float(bid*1.1), sqldb.Int(1),
			sqldb.Int(g.Date(12006, 6))); err != nil {
			return err
		}
		item[nbBids] = sqldb.Int(item[nbBids].AsInt() + 1)
		if item[maxBid].AsFloat() < bid {
			item[maxBid] = sqldb.Float(bid)
		}
	}
	items := sqldb.NewInsertBatch(db, "items", "id", "name", "description", "seller_id",
		"category_id", "region_id", "init_price", "reserve", "buy_now", "nb_bids", "max_bid",
		"start_date", "end_date")
	for _, row := range live {
		if err := items.Add(row...); err != nil {
			return err
		}
	}
	oldItems := sqldb.NewInsertBatch(db, "old_items",
		"id", "name", "seller_id", "category_id", "region_id", "max_bid", "end_date")
	for i := 0; i < sc.OldItems; i++ {
		if err := oldItems.Add(
			sqldb.Int(int64(1000000+i)), sqldb.String(g.Sentence(3)),
			sqldb.Int(int64(1+g.Intn(sc.Users))), sqldb.Int(int64(1+g.Intn(sc.Categories))),
			sqldb.Int(int64(1+g.Intn(sc.Regions))), sqldb.Float(g.Price(1, 400)),
			sqldb.Int(g.Date(11999, 900))); err != nil {
			return err
		}
	}
	comments := sqldb.NewInsertBatch(db, "comments", "from_user", "to_user", "item_id", "rating", "comment")
	for i := 0; i < sc.Comments; i++ {
		if err := comments.Add(
			sqldb.Int(int64(1+g.Intn(sc.Users))), sqldb.Int(int64(1+g.Intn(sc.Users))),
			sqldb.Int(int64(1+g.Intn(sc.Items))), sqldb.Int(int64(g.Intn(6))),
			sqldb.String(g.Sentence(8))); err != nil {
			return err
		}
	}
	for _, b := range []*sqldb.InsertBatch{categories, regions, users, bids, items, oldItems, comments} {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	_, err := db.Exec("INSERT INTO ids (name, value) VALUES ('item', ?)", sqldb.Int(int64(sc.Items+1)))
	return err
}
