package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/telemetry"
)

// DB is an in-memory database instance. It is safe for concurrent use by
// multiple sessions. Writers are isolated by table write locks (locks.go),
// MyISAM's granularity; reads execute against committed copy-on-write views
// and take none (mvcc.go); multi-statement atomicity comes from the
// transaction subsystem (txn.go): BEGIN/COMMIT/ROLLBACK over private forks.
type DB struct {
	mu     sync.RWMutex // guards the catalog (tables map), not table data
	tables map[string]*Table
	plans  *lru.Cache[sqlparse.Statement] // see Prepare

	// commitMu brackets every commit section — the few instructions in
	// which a statement or transaction becomes committed state and its WAL
	// record is appended — on the read side, so they run concurrently, and
	// a checkpoint's capture on the write side, so it cuts between them
	// (wal.go). Nothing waits for anything while holding it.
	commitMu sync.RWMutex

	// wal is the attached write-ahead log, nil for a purely in-memory
	// instance. Set once by AttachWAL before the DB serves traffic.
	wal *WAL

	ctr           counters
	lockWaitNanos atomic.Int64 // configured txn lock-wait timeout (0 = default)
}

// counters is the engine's atomic counter cells, each named after the
// telemetry.Tier field it fills (the log's are on the WAL): transaction
// outcomes (txn.go), the read path (mvcc.go) and the plan cache, whose LRU
// counts into them (plancache.go).
type counters struct {
	Commits, Aborts, DeadlockTimeouts, TxnLockWaitNanos atomic.Int64
	SnapshotReads, LockBypasses, SnapshotRefreshes      atomic.Int64
	PlanHits, PlanMisses                                atomic.Int64
}

// Telemetry is the engine's database-tier row: its transaction, read-path,
// plan cache and write-ahead log counters since it was created.
func (db *DB) Telemetry() telemetry.Tier {
	t := telemetry.Tier{Name: "db"}
	telemetry.Load(&t, &db.ctr)
	if w := db.wal; w != nil {
		telemetry.Load(&t, &w.ctr)
	}
	return t
}

// New creates an empty database.
func New() *DB {
	db := &DB{tables: make(map[string]*Table)}
	db.plans = lru.New[sqlparse.Statement](defaultPlanCacheSize,
		lru.Counters{Hits: &db.ctr.PlanHits, Misses: &db.ctr.PlanMisses})
	return db
}

// ErrNoTable is wrapped by errors returned for statements that reference an
// unknown table.
var ErrNoTable = errors.New("no such table")

// table resolves a table name.
func (db *DB) table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sqldb: %w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Table exposes a table for inspection (tests, data generators).
func (db *DB) Table(name string) (*Table, error) { return db.table(name) }

// TableNames returns the catalog in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableNamesLocked()
}

func (db *DB) tableNamesLocked() []string {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sortStrings(names)
	return names
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Session is one client's connection state: the open transaction, if any.
// Sessions are not goroutine-safe; each connection owns one.
type Session struct {
	db *DB
	tx *txn // non-nil while a transaction is open
	// pendingLSN is the WAL position of the statement's commit unit, set
	// while engine locks are held and awaited (group commit) by ExecStmt
	// after they are released.
	pendingLSN uint64
}

// NewSession creates a session on db.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// Close rolls back any open transaction, releasing the table locks it
// holds (a disconnecting client implicitly runs ROLLBACK).
func (s *Session) Close() {
	if s.tx != nil {
		s.rollbackTxn()
	}
}

// Result is the outcome of a statement: rows for SELECT, counters otherwise.
type Result struct {
	Columns      []string
	Rows         []Row
	RowsAffected int64
	LastInsertID int64
}

// Exec parses and executes one statement with '?' placeholders bound to
// args, inside the session's open transaction if there is one. Parsing
// goes through the database's shared plan cache, so repeated statements —
// from any session — are parsed once.
func (s *Session) Exec(query string, args ...Value) (*Result, error) {
	stmt, err := s.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt, args...)
}

// Execer is the one way a statement reaches the database, whichever handle
// carries it: an in-process *Session, a pooled wire client or a borrowed
// connection (wire.Pool, wire.Conn), or a cluster client or session. Every
// one of them parses a distinct text once and runs it prepared after that:
// a session through the database's plan cache, the wire client by
// statement id on its connection (bounded per connection), the cluster
// client through both.
type Execer interface {
	Exec(query string, args ...Value) (*Result, error)
}

var _ Execer = (*Session)(nil)

// Deprecated: a *Session is an Execer; SessionExecer{S: s} is s.
type SessionExecer struct{ S *Session }

// Exec executes one statement on the session.
func (e SessionExecer) Exec(q string, args ...Value) (*Result, error) { return e.S.Exec(q, args...) }

// ExecStmt executes an already-parsed statement. Callers that issue the same
// query repeatedly (the application tiers) parse once and reuse the AST, as
// a prepared statement would.
//
// With a WAL attached, a statement that committed work (auto-commit DML,
// DDL, or the COMMIT ending a transaction) is acknowledged only after its
// log record is fsynced — the group-commit wait happens here, after every
// engine lock has been released, so commits queue behind one fsync instead
// of serializing on it.
func (s *Session) ExecStmt(stmt sqlparse.Statement, args ...Value) (*Result, error) {
	res, err := s.execStmt(stmt, args)
	if lsn := s.pendingLSN; lsn != 0 {
		s.pendingLSN = 0
		if w := s.db.wal; w != nil {
			if werr := w.WaitDurable(lsn); werr != nil && err == nil {
				// Applied in memory but not durably logged: surface the
				// failure — the cluster treats it like any failed write
				// (eject and later resync the replica).
				return nil, werr
			}
		}
	}
	return res, err
}

// notePending records the highest WAL LSN this statement is responsible
// for. LSNs are totally ordered, so waiting on the max covers every unit
// the statement produced (an implicit commit plus a DDL record, say).
func (s *Session) notePending(lsn uint64) {
	if lsn > s.pendingLSN {
		s.pendingLSN = lsn
	}
}

func (s *Session) execStmt(stmt sqlparse.Statement, args []Value) (*Result, error) {
	if s.tx != nil && s.tx.prepared {
		// Between PREPARE TRANSACTION and its resolution only the second
		// phase is legal.
		switch stmt.(type) {
		case *sqlparse.Commit, *sqlparse.Rollback:
		default:
			return nil, errors.New("sqldb: transaction is prepared; only COMMIT or ROLLBACK allowed")
		}
	}
	switch st := stmt.(type) {
	case *sqlparse.CreateTable:
		s.implicitCommit()
		return s.db.execCreateTable(s, st)
	case *sqlparse.CreateIndex:
		s.implicitCommit()
		return s.db.execCreateIndex(s, st)
	case *sqlparse.ShowTableStatus:
		return s.db.execShowTableStatus()
	case *sqlparse.ShowWALStatus:
		return s.db.execShowWALStatus()
	case *sqlparse.AlterAutoInc:
		s.implicitCommit()
		return s.db.execAlterAutoInc(s, st)
	case *sqlparse.PrepareTxn:
		return s.execPrepareTxn()
	case *sqlparse.Begin:
		return s.execBegin()
	case *sqlparse.Commit:
		return s.execCommit()
	case *sqlparse.Rollback:
		return s.execRollback()
	case *sqlparse.Insert:
		return s.execDML(st.Table, st.Src, args, func(t *Table) (*Result, error) {
			return execInsert(t, st, args)
		})
	case *sqlparse.Update:
		return s.execDML(st.Table, st.Src, args, func(t *Table) (*Result, error) {
			return execUpdate(t, st, args)
		})
	case *sqlparse.Delete:
		return s.execDML(st.Table, st.Src, args, func(t *Table) (*Result, error) {
			return execDelete(t, st, args)
		})
	case *sqlparse.Select:
		return s.execSelect(st, args)
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %T", stmt)
	}
}

// implicitCommit commits an open transaction before statements that cannot
// be part of one (DDL) — MySQL's implicit-commit rule.
func (s *Session) implicitCommit() {
	if s.tx != nil {
		s.commitTxn()
	}
}

// execDML routes a write statement: inside a transaction it runs on the
// transaction's fork of the table, under a write lock acquired with the wait
// timeout and held until commit/rollback; outside, it takes the write lock
// for the statement and applies itself to the committed state in place. src
// is the statement's source text for WAL logging (empty on hand-built ASTs:
// such statements execute but cannot be logged).
func (s *Session) execDML(table, src string, args []Value, fn func(*Table) (*Result, error)) (*Result, error) {
	t, err := s.db.table(table)
	if err != nil {
		return nil, err
	}
	if s.tx != nil {
		return s.execTxnDML(t, src, args, fn)
	}
	t.lock.lock()
	defer t.lock.unlock()
	// The statement is its own commit section: applied, logged and published
	// under the leaf mutex, so a reader clones the state before it or after
	// it. A failed statement publishes too — it may have applied part of its
	// row set. The WAL append sits inside so log order matches publication
	// order; the fsync wait comes later, with nothing held.
	return s.db.commitSection(t, func() (*Result, error) {
		res, err := fn(t)
		s.logAutoCommit(src, args)
		return res, err
	})
}

// commitSection runs fn — a change to t's committed state in place, with
// its WAL append — as one commit section, and publishes it.
func (db *DB) commitSection(t *Table, fn func() (*Result, error)) (*Result, error) {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.version.Add(1)
	return fn()
}

// logAutoCommit appends an auto-commit statement to the WAL inside the
// statement's commit section. It is called even when the
// statement failed: MyISAM's partial application (a multi-row INSERT that
// dies on row 3 keeps rows 1-2) is committed state, and replaying the
// statement reproduces exactly the same partial application and error.
func (s *Session) logAutoCommit(src string, args []Value) {
	if w := s.db.wal; w != nil && src != "" {
		s.notePending(w.appendOne(src, args))
	}
}

// DDL executors log to the WAL inside their exclusive section (the catalog
// lock, or the table's commit section) so the log's statement order matches
// apply order, and only on success.
func (db *DB) execCreateTable(s *Session, st *sqlparse.CreateTable) (*Result, error) {
	cols := make([]Column, 0, len(st.Columns))
	for _, c := range st.Columns {
		cols = append(cols, Column{
			Name:          c.Name,
			Type:          c.Type,
			PrimaryKey:    c.PrimaryKey,
			AutoIncrement: c.AutoIncrement,
			NotNull:       c.NotNull || c.PrimaryKey,
		})
	}
	t, err := newTable(strings.ToLower(st.Name), cols)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[t.name]; dup {
		return nil, fmt.Errorf("sqldb: table %q already exists", st.Name)
	}
	db.tables[t.name] = t
	if db.wal != nil && st.Src != "" {
		s.notePending(db.wal.appendOne(st.Src, nil))
	}
	return &Result{}, nil
}

// execShowTableStatus reports each table's row count and AUTO_INCREMENT
// state. The replica-sync path reads it to reproduce id assignment exactly
// on the destination — row data alone cannot carry the counter's stride.
func (db *DB) execShowTableStatus() (*Result, error) {
	res := &Result{Columns: []string{"table", "rows", "auto_increment", "ai_offset", "ai_stride"}}
	for _, n := range db.TableNames() {
		t, err := db.table(n)
		if err != nil {
			return nil, err
		}
		t.mu.Lock() // four words of the committed state: not worth a view
		res.Rows = append(res.Rows, Row{
			String(n), Int(int64(t.rows.len())), Int(t.nextAI),
			Int(t.aiOffset), Int(t.aiStride),
		})
		t.mu.Unlock()
	}
	return res, nil
}

// execAlterAutoInc applies ALTER TABLE ... AUTO_INCREMENT under the table's
// write lock.
func (db *DB) execAlterAutoInc(s *Session, st *sqlparse.AlterAutoInc) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	t.lock.lock()
	defer t.lock.unlock()
	return db.commitSection(t, func() (*Result, error) {
		t.setAutoInc(st.Offset, st.Stride, st.Next)
		if db.wal != nil && st.Src != "" {
			s.notePending(db.wal.appendOne(st.Src, nil))
		}
		return &Result{}, nil
	})
}

func (db *DB) execCreateIndex(s *Session, st *sqlparse.CreateIndex) (*Result, error) {
	t, err := db.table(st.Table)
	if err != nil {
		return nil, err
	}
	col, err := t.colOf(st.Column)
	if err != nil {
		return nil, err
	}
	t.lock.lock()
	defer t.lock.unlock()
	return db.commitSection(t, func() (*Result, error) {
		if err := t.addIndex(st.Name, col, st.Unique); err != nil {
			return nil, err
		}
		if db.wal != nil && st.Src != "" {
			s.notePending(db.wal.appendOne(st.Src, nil))
		}
		return &Result{}, nil
	})
}

// execSelect resolves the statement's tables and executes it against what
// this session may see of each (mvcc.go): no lock, no wait.
func (s *Session) execSelect(st *sqlparse.Select, args []Value) (*Result, error) {
	from, err := s.db.table(st.From.Table)
	if err != nil {
		return nil, err
	}
	tabs := append(make([]*Table, 0, 2), from)
	if st.Join != nil {
		t, err := s.db.table(st.Join.Table.Table)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, t)
	}
	return execSelect(s.views(tabs), st, args)
}
