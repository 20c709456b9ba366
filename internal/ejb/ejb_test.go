package ejb

import (
	"fmt"
	"testing"

	"repro/internal/rmi"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

func startDB(t testing.TB) string {
	t.Helper()
	db := sqldb.New()
	s := db.NewSession()
	defer s.Close()
	for _, q := range []struct {
		sql  string
		args []sqldb.Value
	}{
		{sql: `CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, nick VARCHAR(30), rating INT, balance FLOAT)`},
		{`INSERT INTO users (nick, rating, balance) VALUES ('alice', 5, ?), ('bob', 3, ?)`, []sqldb.Value{sqldb.Float(100), sqldb.Float(50)}},
		{sql: `CREATE INDEX idx_nick ON users (nick)`},
	} {
		if _, err := s.Exec(q.sql, q.args...); err != nil {
			t.Fatal(err)
		}
	}
	srv := wire.NewServer(db, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

func userEntity() EntityDef {
	return EntityDef{Name: "User", Table: "users", Key: "id",
		Fields: []string{"nick", "rating", "balance"}}
}

func newTestContainer(t testing.TB, cfg Config) *Container {
	t.Helper()
	cfg.DB.DSN = startDB(t)
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineEntity(userEntity()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEntityLoadGetSet(t *testing.T) {
	c := newTestContainer(t, Config{})
	tx := c.Begin()
	u, err := tx.Load("User", sqldb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	nick, err := u.Get("nick")
	if err != nil || nick.AsString() != "alice" {
		t.Fatalf("nick %v err %v", nick, err)
	}
	base := c.Telemetry().Queries
	if err := u.Set("rating", sqldb.Int(9)); err != nil {
		t.Fatal(err)
	}
	if got := c.Telemetry().Queries - base; got != 1 {
		t.Fatalf("CMP field store issued %d statements, want exactly 1", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Verify through a fresh activation.
	u2, err := c.Begin().Load("User", sqldb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := u2.Get("rating"); r.AsInt() != 9 {
		t.Fatalf("rating %v", r)
	}
}

func TestFinderReturnsKeysOnly(t *testing.T) {
	c := newTestContainer(t, Config{})
	tx := c.Begin()
	keys, err := tx.FindBy("User", "nick", sqldb.String("bob"), 0)
	if err != nil || len(keys) != 1 || keys[0].AsInt() != 2 {
		t.Fatalf("keys %v err %v", keys, err)
	}
	// N+1 pattern: materializing costs one query per key.
	base := c.Telemetry().Queries
	for _, k := range keys {
		if _, err := tx.Load("User", k); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Telemetry().Queries - base; got != int64(len(keys)) {
		t.Fatalf("activations issued %d statements, want %d", got, len(keys))
	}
}

func TestFindWhere(t *testing.T) {
	c := newTestContainer(t, Config{})
	keys, err := c.Begin().FindWhere("User", "nick LIKE ?",
		[]sqldb.Value{sqldb.String("%")}, "rating DESC", 10)
	if err != nil || len(keys) != 2 {
		t.Fatalf("keys %v err %v", keys, err)
	}
	if keys[0].AsInt() != 1 {
		t.Fatalf("order: %v", keys)
	}
	keys, err = c.Begin().FindWhere("User", "nick LIKE ?",
		[]sqldb.Value{sqldb.String("%b%")}, "rating DESC", 10)
	if err != nil || len(keys) != 1 || keys[0].AsInt() != 2 {
		t.Fatalf("filtered keys %v err %v", keys, err)
	}
}

func TestCreateAndRemove(t *testing.T) {
	c := newTestContainer(t, Config{})
	tx := c.Begin()
	pk, err := tx.Create("User", []sqldb.Value{sqldb.String("carol"), sqldb.Int(1), sqldb.Float(0)})
	if err != nil {
		t.Fatal(err)
	}
	if pk.AsInt() != 3 {
		t.Fatalf("pk %v", pk)
	}
	if _, err := tx.Load("User", pk); err != nil {
		t.Fatal(err)
	}
	if err := tx.Remove("User", pk); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Load("User", pk); err == nil {
		t.Fatal("removed entity still loads")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBehindBatchesStores(t *testing.T) {
	c := newTestContainer(t, Config{WriteBehind: true})
	tx := c.Begin()
	u, err := tx.Load("User", sqldb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	base := c.Telemetry().Queries
	// Three stores to the same field collapse into one UPDATE at commit.
	for _, v := range []int64{1, 2, 3} {
		if err := u.Set("rating", sqldb.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Set("balance", sqldb.Float(7)); err != nil {
		t.Fatal(err)
	}
	if got := c.Telemetry().Queries - base; got != 0 {
		t.Fatalf("write-behind issued %d statements before commit", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := c.Telemetry().Queries - base; got != 2 {
		t.Fatalf("commit issued %d statements, want 2 (one per dirty field)", got)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit must fail")
	}
	u2, _ := c.Begin().Load("User", sqldb.Int(1))
	if r, _ := u2.Get("rating"); r.AsInt() != 3 {
		t.Fatalf("last write must win: %v", r)
	}
}

func TestUnknownEntityAndField(t *testing.T) {
	c := newTestContainer(t, Config{})
	tx := c.Begin()
	if _, err := tx.Load("Nope", sqldb.Int(1)); err == nil {
		t.Fatal("unknown entity must fail")
	}
	u, err := tx.Load("User", sqldb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Get("nope"); err == nil {
		t.Fatal("unknown field get must fail")
	}
	if err := u.Set("nope", sqldb.Int(1)); err == nil {
		t.Fatal("unknown field set must fail")
	}
	if _, err := tx.Create("User", []sqldb.Value{sqldb.Int(1)}); err == nil {
		t.Fatal("wrong create arity must fail")
	}
}

func TestDuplicateEntityDefinition(t *testing.T) {
	c := newTestContainer(t, Config{})
	if err := c.DefineEntity(userEntity()); err == nil {
		t.Fatal("duplicate entity must fail")
	}
	if err := c.DefineEntity(EntityDef{Name: "X"}); err == nil {
		t.Fatal("incomplete definition must fail")
	}
}

// Facade exercises the full session-façade path over RMI.
type RateArgs struct {
	UserID int64
	Delta  int64
}
type RateReply struct {
	NewRating int64
	Queries   int64
}

type UserFacade struct{ c *Container }

func (f *UserFacade) Rate(args *RateArgs, reply *RateReply) error {
	return f.c.RunInTx(func(tx *Tx) error {
		u, err := tx.Load("User", sqldb.Int(args.UserID))
		if err != nil {
			return err
		}
		r, err := u.Get("rating")
		if err != nil {
			return err
		}
		if err := u.Set("rating", sqldb.Int(r.AsInt()+args.Delta)); err != nil {
			return err
		}
		reply.NewRating = r.AsInt() + args.Delta
		reply.Queries = f.c.Telemetry().Queries
		return nil
	})
}

func TestSessionFacadeOverRMI(t *testing.T) {
	c := newTestContainer(t, Config{})
	if err := c.RegisterFacade("UserFacade", &UserFacade{c: c}); err != nil {
		t.Fatal(err)
	}
	addr, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := rmi.NewClient(addr.String(), 2)
	defer cl.Close()
	var reply RateReply
	if err := cl.Call("UserFacade.Rate", &RateArgs{UserID: 2, Delta: 4}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.NewRating != 7 {
		t.Fatalf("rating %d, want 7", reply.NewRating)
	}
	if reply.Queries < 2 {
		t.Fatalf("facade should have issued >=2 CMP statements, got %d", reply.Queries)
	}
}

// TestRunInTxCommitsAndCounts: container-managed demarcation commits on nil
// and the counters see it.
func TestRunInTxCommitsAndCounts(t *testing.T) {
	c := newTestContainer(t, Config{})
	err := c.RunInTx(func(tx *Tx) error {
		u, err := tx.Load("User", sqldb.Int(1))
		if err != nil {
			return err
		}
		return u.Set("rating", sqldb.Int(8))
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.Begin().Load("User", sqldb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := u.Get("rating"); r.AsInt() != 8 {
		t.Fatalf("rating %v, want 8", r)
	}
	if s := c.Telemetry(); s.Commits != 1 || s.Aborts != 0 {
		t.Fatalf("tx counters %+v", s)
	}
}

// TestRunInTxErrorRollsBack: a business method returning an error must
// leave the database untouched.
func TestRunInTxErrorRollsBack(t *testing.T) {
	c := newTestContainer(t, Config{})
	errSentinel := fmt.Errorf("business rule violated")
	err := c.RunInTx(func(tx *Tx) error {
		u, err := tx.Load("User", sqldb.Int(1))
		if err != nil {
			return err
		}
		if err := u.Set("rating", sqldb.Int(99)); err != nil {
			return err
		}
		if _, err := tx.Create("User", []sqldb.Value{
			sqldb.String("phantom"), sqldb.Int(0), sqldb.Float(0)}); err != nil {
			return err
		}
		return errSentinel
	})
	if err != errSentinel {
		t.Fatalf("err %v, want sentinel", err)
	}
	tx := c.Begin()
	u, err := tx.Load("User", sqldb.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := u.Get("rating"); r.AsInt() != 5 {
		t.Fatalf("aborted store visible: rating %v", r)
	}
	if keys, _ := tx.FindBy("User", "nick", sqldb.String("phantom"), 0); len(keys) != 0 {
		t.Fatal("aborted create visible")
	}
	if s := c.Telemetry(); s.Aborts != 1 {
		t.Fatalf("tx counters %+v", s)
	}
}

// TestRunInTxPanicRollsBack: a panicking business method rolls back and the
// panic propagates (the container's panic ⇒ rollback guarantee).
func TestRunInTxPanicRollsBack(t *testing.T) {
	c := newTestContainer(t, Config{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic must propagate")
			}
		}()
		_ = c.RunInTx(func(tx *Tx) error {
			u, err := tx.Load("User", sqldb.Int(2))
			if err != nil {
				return err
			}
			if err := u.Set("balance", sqldb.Float(-1)); err != nil {
				return err
			}
			panic("bean exploded")
		})
	}()
	u, err := c.Begin().Load("User", sqldb.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := u.Get("balance"); b.AsFloat() != 50.0 {
		t.Fatalf("balance %v, want 50 (panic must roll back)", b)
	}
	if s := c.Telemetry(); s.Aborts != 1 {
		t.Fatalf("tx counters %+v", s)
	}
}
