// Package bookstore implements the paper's online bookstore benchmark: the
// TPC-W application (§3.1) with its eight tables and fourteen interactions,
// three workload mixes (browsing 95%, shopping 80%, ordering 50% read-only),
// and two implementations of the application logic — a hand-written SQL
// layer shared by the script-module and servlet deployments, and an
// EJB session-façade variant over entity beans (ejb.go).
package bookstore

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/sqldb"
)

// Scale sizes the generated database. The paper's full population is
// 10,000 items and 288,000 customers (350 MB); DefaultScale divides by 20
// so tests and examples stay fast while keeping realistic selectivities.
type Scale struct {
	Items     int
	Customers int
	Authors   int
	Countries int
	Orders    int // pre-existing order history
}

// DefaultScale is 1/20 of the paper's population.
func DefaultScale() Scale {
	return Scale{Items: 500, Customers: 14400, Authors: 125, Countries: 92, Orders: 1200}
}

// PaperScale is the population from TPC-W as the paper configures it.
func PaperScale() Scale {
	return Scale{Items: 10000, Customers: 288000, Authors: 2500, Countries: 92, Orders: 25920}
}

// TinyScale keeps unit tests fast.
func TinyScale() Scale {
	return Scale{Items: 60, Customers: 200, Authors: 15, Countries: 10, Orders: 50}
}

// Subjects are the TPC-W book subject categories.
var Subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
	"HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
	"NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
	"ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
	"YOUTH", "TRAVEL",
}

// SchemaSQL returns the DDL for the eight TPC-W tables plus indexes.
func SchemaSQL() []string {
	return []string{
		`CREATE TABLE countries (
			id INT PRIMARY KEY AUTO_INCREMENT,
			name VARCHAR(50) NOT NULL)`,
		`CREATE TABLE authors (
			id INT PRIMARY KEY AUTO_INCREMENT,
			fname VARCHAR(20) NOT NULL,
			lname VARCHAR(20) NOT NULL)`,
		`CREATE INDEX idx_author_lname ON authors (lname)`,
		`CREATE TABLE items (
			id INT PRIMARY KEY AUTO_INCREMENT,
			title VARCHAR(60) NOT NULL,
			author_id INT NOT NULL,
			pub_date INT,
			subject VARCHAR(20),
			descr TEXT,
			cost FLOAT,
			stock INT,
			total_sold INT)`,
		`CREATE INDEX idx_item_subject ON items (subject)`,
		`CREATE INDEX idx_item_author ON items (author_id)`,
		`CREATE TABLE customers (
			id INT PRIMARY KEY AUTO_INCREMENT,
			uname VARCHAR(20) NOT NULL,
			passwd VARCHAR(20),
			fname VARCHAR(20),
			lname VARCHAR(20),
			addr_id INT,
			phone VARCHAR(16),
			email VARCHAR(50),
			discount FLOAT)`,
		`CREATE UNIQUE INDEX idx_cust_uname ON customers (uname)`,
		`CREATE TABLE address (
			id INT PRIMARY KEY AUTO_INCREMENT,
			street VARCHAR(40),
			city VARCHAR(30),
			country_id INT)`,
		`CREATE TABLE orders (
			id INT PRIMARY KEY AUTO_INCREMENT,
			customer_id INT NOT NULL,
			o_date INT,
			subtotal FLOAT,
			total FLOAT,
			status VARCHAR(16))`,
		`CREATE INDEX idx_order_customer ON orders (customer_id)`,
		`CREATE TABLE order_line (
			id INT PRIMARY KEY AUTO_INCREMENT,
			order_id INT NOT NULL,
			item_id INT NOT NULL,
			qty INT,
			discount FLOAT)`,
		`CREATE INDEX idx_ol_order ON order_line (order_id)`,
		`CREATE TABLE credit_info (
			id INT PRIMARY KEY AUTO_INCREMENT,
			order_id INT NOT NULL,
			cc_type VARCHAR(10),
			cc_number VARCHAR(16),
			cc_expiry INT,
			auth_id VARCHAR(16))`,
		`CREATE INDEX idx_ci_order ON credit_info (order_id)`,
	}
}

// ShardBy is the benchmark's horizontal partitioning map
// (cluster.Config.ShardBy): the order-path tables — the only tables TPC-W
// writes during the run — partition by customer. Strided AUTO_INCREMENT
// makes an order's id congruent to its shard, so order lines and credit
// info keyed by order_id colocate with their order. The catalog
// (items, authors, countries) and the customer roster replicate to every
// shard as global tables — they are read-mostly and every shard's local
// joins need them.
func ShardBy() map[string]string {
	return map[string]string{
		"orders":      "customer_id",
		"order_line":  "order_id",
		"credit_info": "order_id",
	}
}

// CreateSchema applies the DDL.
func CreateSchema(db sqldb.Execer) error {
	for _, q := range SchemaSQL() {
		if _, err := db.Exec(q); err != nil {
			return fmt.Errorf("bookstore: schema: %w", err)
		}
	}
	return nil
}

// Populate fills the database deterministically at the given scale, in
// multi-row batches (sqldb.InsertBatch). Orders are the exception: each
// one is its own statement, because the id it is assigned is what places
// its lines and credit information on its shard (DESIGN.md §9).
func Populate(db sqldb.Execer, sc Scale, seed int64) error {
	g := datagen.New(seed)
	countries := sqldb.NewInsertBatch(db, "countries", "name")
	for i := 0; i < sc.Countries; i++ {
		if err := countries.Add(sqldb.String(g.Name())); err != nil {
			return err
		}
	}
	authors := sqldb.NewInsertBatch(db, "authors", "fname", "lname")
	for i := 0; i < sc.Authors; i++ {
		if err := authors.Add(sqldb.String(g.Name()), sqldb.String(g.Name())); err != nil {
			return err
		}
	}
	items := sqldb.NewInsertBatch(db, "items",
		"title", "author_id", "pub_date", "subject", "descr", "cost", "stock", "total_sold")
	for i := 0; i < sc.Items; i++ {
		if err := items.Add(
			sqldb.String(g.Sentence(3)),
			sqldb.Int(int64(1+g.Intn(sc.Authors))),
			sqldb.Int(g.Date(12000, 3000)),
			sqldb.String(datagen.Pick(g, Subjects)),
			sqldb.String(g.Sentence(25)),
			sqldb.Float(g.Price(5, 100)),
			sqldb.Int(int64(10+g.Intn(500))),
			sqldb.Int(int64(g.Intn(5000)))); err != nil {
			return err
		}
	}
	address := sqldb.NewInsertBatch(db, "address", "street", "city", "country_id")
	customers := sqldb.NewInsertBatch(db, "customers",
		"uname", "passwd", "fname", "lname", "addr_id", "phone", "email", "discount")
	for i := 0; i < sc.Customers; i++ {
		nick := fmt.Sprintf("user%d", i+1)
		if err := address.Add(
			sqldb.String(g.Sentence(2)), sqldb.String(g.Name()),
			sqldb.Int(int64(1+g.Intn(sc.Countries)))); err != nil {
			return err
		}
		if err := customers.Add(
			sqldb.String(nick), sqldb.String("pw"+nick),
			sqldb.String(g.Name()), sqldb.String(g.Name()),
			sqldb.Int(int64(i+1)), sqldb.String(g.Digits(10)),
			sqldb.String(g.Email(nick)), sqldb.Float(g.Price(0, 0.3))); err != nil {
			return err
		}
	}
	lines := sqldb.NewInsertBatch(db, "order_line", "order_id", "item_id", "qty", "discount")
	credit := sqldb.NewInsertBatch(db, "credit_info", "order_id", "cc_type", "cc_number", "cc_expiry", "auth_id")
	for i := 0; i < sc.Orders; i++ {
		cust := 1 + g.Intn(sc.Customers)
		res, err := db.Exec(
			`INSERT INTO orders (customer_id, o_date, subtotal, total, status)
			 VALUES (?, ?, ?, ?, ?)`,
			sqldb.Int(int64(cust)), sqldb.Int(g.Date(12000, 180)),
			sqldb.Float(g.Price(10, 300)), sqldb.Float(g.Price(10, 330)),
			sqldb.String("SHIPPED"))
		if err != nil {
			return err
		}
		oid := sqldb.Int(res.LastInsertID)
		for l, n := 0, 1+g.Intn(4); l < n; l++ {
			if err := lines.Add(oid, sqldb.Int(int64(1+g.Intn(sc.Items))),
				sqldb.Int(int64(1+g.Intn(4))), sqldb.Float(0)); err != nil {
				return err
			}
		}
		if err := credit.Add(oid, sqldb.String("VISA"), sqldb.String(g.Digits(16)),
			sqldb.Int(g.Date(13000, 0)), sqldb.String(g.Digits(8))); err != nil {
			return err
		}
	}
	for _, b := range []*sqldb.InsertBatch{countries, authors, items, address, customers, lines, credit} {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	return nil
}
