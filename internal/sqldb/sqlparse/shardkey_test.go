package sqlparse

import (
	"strings"
	"testing"
)

func TestShardExprsPinned(t *testing.T) {
	cases := []struct {
		src    string
		table  string
		column string
		want   int // expected number of key expressions
	}{
		{"SELECT * FROM items WHERE id = ?", "items", "id", 1},
		{"SELECT * FROM items WHERE id = 7", "items", "id", 1},
		{"SELECT name FROM items i WHERE i.id = ? AND stock = 0", "items", "id", 1},
		{"SELECT * FROM items WHERE subject = ? AND id = ?", "items", "id", 1},
		{"SELECT b.bid FROM bids b JOIN items i ON i.id = b.item_id WHERE b.item_id = ?",
			"bids", "item_id", 1},
		{"UPDATE items SET stock = stock - ? WHERE id = ?", "items", "id", 1},
		{"DELETE FROM orders WHERE customer_id = ?", "orders", "customer_id", 1},
		{"INSERT INTO orders (customer_id, total) VALUES (?, ?)", "orders", "customer_id", 1},
		{"INSERT INTO orders (customer_id, total) VALUES (1, 2), (3, 4)", "orders", "customer_id", 2},
		{"SELECT * FROM items WHERE id = -1", "items", "id", 1},
	}
	for _, c := range cases {
		exprs, ok := ShardExprs(mustParse(t, c.src), c.table, c.column)
		if !ok {
			t.Errorf("%q: want pinned, got scatter", c.src)
			continue
		}
		if len(exprs) != c.want {
			t.Errorf("%q: got %d key exprs, want %d", c.src, len(exprs), c.want)
		}
		for _, e := range exprs {
			if !Const(e) {
				t.Errorf("%q: non-constant key expr %T", c.src, e)
			}
		}
	}
}

func TestShardExprsScatter(t *testing.T) {
	cases := []struct {
		src    string
		table  string
		column string
	}{
		// Only an equality on the column itself pins.
		{"SELECT * FROM items WHERE id LIKE ?", "items", "id"},
		{"SELECT * FROM items WHERE id + 0 = ?", "items", "id"},
		// Key column absent.
		{"SELECT * FROM items WHERE subject = ?", "items", "id"},
		{"SELECT * FROM items", "items", "id"},
		{"DELETE FROM orders", "orders", "customer_id"},
		// Equality against another column is not a constant pin.
		{"SELECT * FROM items WHERE id = stock", "items", "id"},
		// Qualified reference to a different table's column of the same name.
		{"SELECT b.bid FROM bids b JOIN items i ON i.id = b.item_id WHERE i.id = ?",
			"bids", "item_id"},
		// A qualifier is the bound name it equals, as the engine resolves
		// it: under an alias, a table's own name is another entry's.
		{"SELECT i.name FROM bids items JOIN items i ON i.id = items.item_id WHERE items.id = ?",
			"items", "id"},
		{"SELECT x.name FROM items x JOIN users items ON items.id = x.seller WHERE items.id = ?",
			"items", "id"},
		// Wrong table entirely.
		{"SELECT * FROM authors WHERE id = ?", "items", "id"},
		// INSERT missing the key column.
		{"INSERT INTO orders (total) VALUES (?)", "orders", "customer_id"},
		// Reassigning the shard column could migrate the row.
		{"UPDATE orders SET customer_id = ? WHERE customer_id = ?", "orders", "customer_id"},
	}
	for _, c := range cases {
		if _, ok := ShardExprs(mustParse(t, c.src), c.table, c.column); ok {
			t.Errorf("%q: want scatter, got pinned", c.src)
		}
	}
}

func TestParseShardStatements(t *testing.T) {
	al, err := Parse("ALTER TABLE orders AUTO_INCREMENT OFFSET 2 STRIDE 4 NEXT 10")
	if err != nil {
		t.Fatalf("ALTER: %v", err)
	}
	a, ok := al.(*AlterAutoInc)
	if !ok || a.Table != "orders" || a.Offset != 2 || a.Stride != 4 || a.Next != 10 {
		t.Fatalf("ALTER parsed wrong: %+v", al)
	}
	if _, err := Parse("ALTER TABLE orders AUTO_INCREMENT"); err == nil {
		t.Fatal("ALTER without clauses should fail")
	}
	// A zero would read as a clause left out and change nothing.
	for _, clause := range []string{"OFFSET", "STRIDE", "NEXT"} {
		_, err := Parse("ALTER TABLE orders AUTO_INCREMENT " + clause + " 0")
		if err == nil || !strings.Contains(err.Error(), clause+" 0") {
			t.Errorf("ALTER with %s 0: %v, want an error naming it", clause, err)
		}
	}
	if st := mustParse(t, "PREPARE TRANSACTION"); st != (Statement)(st.(*PrepareTxn)) {
		t.Fatalf("PREPARE TRANSACTION parsed as %T", st)
	}
	if _, ok := mustParse(t, "SHOW TABLE STATUS").(*ShowTableStatus); !ok {
		t.Fatal("SHOW TABLE STATUS parsed wrong")
	}
	// The contextual keywords must stay usable as column names.
	sel := mustParse(t, "SELECT status, next FROM orders WHERE status = ?").(*Select)
	if len(sel.Columns) != 2 {
		t.Fatalf("contextual keywords broke column references: %+v", sel)
	}
}
