package wire

import (
	"testing"

	"repro/internal/sqldb"
)

// benchServer builds a bookstore-shaped schema: the product-detail lookup
// (single-row SELECT with a JOIN) is the representative hot statement of
// the TPC-W mixes.
func benchServer(b *testing.B) string {
	b.Helper()
	db := sqldb.New()
	s := db.NewSession()
	defer s.Close()
	stmts := []string{
		`CREATE TABLE authors (id INT PRIMARY KEY AUTO_INCREMENT, lname VARCHAR(50))`,
		`CREATE TABLE items (id INT PRIMARY KEY AUTO_INCREMENT, title VARCHAR(100),
			author_id INT, cost FLOAT)`,
		`CREATE INDEX idx_items_author ON items (author_id)`,
	}
	for _, q := range stmts {
		if _, err := s.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= 64; i++ {
		if _, err := s.Exec("INSERT INTO authors (lname) VALUES (?)",
			sqldb.String("author")); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Exec("INSERT INTO items (title, author_id, cost) VALUES (?, ?, ?)",
			sqldb.String("a fairly representative book title"),
			sqldb.Int(int64(i)), sqldb.Float(19.99)); err != nil {
			b.Fatal(err)
		}
	}
	srv := NewServer(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return addr.String()
}

const benchQuery = `SELECT i.id, i.title, a.lname, i.cost
	 FROM items i JOIN authors a ON a.id = i.author_id WHERE i.id = ?`

// BenchmarkExecPrepared is Conn.Exec's steady state: EXECUTE-by-id, no SQL
// text and no parse after the first use.
func BenchmarkExecPrepared(b *testing.B) {
	addr := benchServer(b)
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(benchQuery, sqldb.Int(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Exec(benchQuery, sqldb.Int(int64(1+i%64)))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows: %+v", res.Rows)
		}
	}
}

// BenchmarkPoolExecPrepared measures Pool.Exec, the pooled path the
// application tiers actually use (borrow + EXECUTE-by-id + return).
func BenchmarkPoolExecPrepared(b *testing.B) {
	addr := benchServer(b)
	p := NewPool(addr, 4)
	defer p.Close()
	if _, err := p.Exec(benchQuery, sqldb.Int(1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(benchQuery, sqldb.Int(int64(1+i%64))); err != nil {
			b.Fatal(err)
		}
	}
}
