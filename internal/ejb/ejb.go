// Package ejb is an Enterprise-JavaBeans-style container in the mold of
// JOnAS 2.5, the EJB server of the paper's testbed: entity beans with
// container-managed persistence (CMP) whose SQL is generated automatically,
// stateless session beans exposed over RMI (the session façade pattern of
// §4.2), and a per-entity bean cache.
//
// The defining performance property the paper measures — "a very large
// number of small packets ... accesses to fields in the beans that require
// a single value to be read or updated in the database" (§6.1) — falls out
// of the CMP design: finders return primary keys, each entity activation is
// a single-row SELECT, and every field store is a single-column UPDATE.
//
// The container reaches the database through a cluster.Client built from
// Config.DB, a cluster.Config it passes through untouched.
package ejb

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/rmi"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
)

// ErrNotFound is wrapped by Load when no row has the primary key. It is the
// one Load failure a façade may answer as "no such item": every other error
// is the database failing, and surfaces.
var ErrNotFound = errors.New("not found")

// EntityDef declares one entity bean: a table, its primary key and the
// managed fields.
type EntityDef struct {
	Name   string
	Table  string
	Key    string
	Fields []string
}

// entityMeta holds the container-generated SQL for one entity, built once
// at deployment: every CMP access (activation SELECT, field-store UPDATE,
// create INSERT) is one of these fixed texts, which the cluster client
// runs over the wire protocol's EXECUTE-by-id fast path.
type entityMeta struct {
	def        EntityDef
	load       string            // SELECT key, fields WHERE key = ?
	insert     string            // INSERT (fields...)
	update     map[string]string // per-field single-column UPDATE
	fieldIndex map[string]int    // field -> position in load results
}

// Config configures a container.
type Config struct {
	// DB configures the container's database client — DSN (required), pool
	// size, write policy, deadlines, query cache: cluster.Config documents
	// each, and is the one place a setting is declared.
	DB cluster.Config
}

// Container manages entity beans and hosts session beans over RMI.
type Container struct {
	pool *cluster.Client

	mu       sync.RWMutex
	entities map[string]*entityMeta

	rmiServer *rmi.Server

	// The counter cells, each named after the telemetry.Tier field it
	// fills: statements issued (for the packet-count analysis), entity
	// activations and field stores, and transaction outcomes — ReadOnlyTxns
	// the commits of transactions that never wrote.
	ctr struct {
		Queries, Loads, Stores, Commits, Aborts, ReadOnlyTxns atomic.Int64
	}
}

// NewContainer creates a container connected to the database.
func NewContainer(cfg Config) (*Container, error) {
	if cfg.DB.DSN == "" {
		return nil, fmt.Errorf("ejb: DB.DSN required")
	}
	return &Container{
		pool:      cluster.NewWithConfig(cfg.DB),
		entities:  make(map[string]*entityMeta),
		rmiServer: rmi.NewServer(),
	}, nil
}

// DefineEntity registers an entity bean and generates its CMP SQL.
func (c *Container) DefineEntity(def EntityDef) error {
	if def.Name == "" || def.Table == "" || def.Key == "" {
		return fmt.Errorf("ejb: entity definition needs name, table and key")
	}
	m := &entityMeta{
		def:        def,
		update:     make(map[string]string, len(def.Fields)),
		fieldIndex: make(map[string]int, len(def.Fields)),
	}
	cols := append([]string{def.Key}, def.Fields...)
	m.load = fmt.Sprintf("SELECT %s FROM %s WHERE %s = ?",
		strings.Join(cols, ", "), def.Table, def.Key)
	ph := strings.TrimSuffix(strings.Repeat("?, ", len(def.Fields)), ", ")
	m.insert = fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
		def.Table, strings.Join(def.Fields, ", "), ph)
	for i, f := range def.Fields {
		m.update[f] = fmt.Sprintf("UPDATE %s SET %s = ? WHERE %s = ?",
			def.Table, f, def.Key)
		m.fieldIndex[f] = i + 1 // position 0 is the key
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entities[def.Name]; dup {
		return fmt.Errorf("ejb: duplicate entity %q", def.Name)
	}
	c.entities[def.Name] = m
	return nil
}

func (c *Container) meta(name string) (*entityMeta, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.entities[name]
	if !ok {
		return nil, fmt.Errorf("ejb: unknown entity %q", name)
	}
	return m, nil
}

// Telemetry is the container's ejb-tier row: the statements it issued (the
// observable behind the paper's ~2,000 packets/s measurement), entity
// activations and field stores, container-managed transaction outcomes,
// and its cluster client's counters and pool.
func (c *Container) Telemetry() telemetry.Tier {
	ps := c.pool.Stats()
	t := telemetry.Tier{Name: "ejb", Downstream: "db", Pool: &ps, ClusterStats: c.pool.ClientStats()}
	telemetry.Load(&t, &c.ctr)
	return t
}

// Entity is an activated entity bean instance: a local copy of one row.
type Entity struct {
	meta   *entityMeta
	c      *Container
	tx     *Tx
	pk     sqldb.Value
	fields []sqldb.Value
}

// PK returns the primary key value.
func (e *Entity) PK() sqldb.Value { return e.pk }

// Get returns a managed field's value from the activated state.
func (e *Entity) Get(field string) (sqldb.Value, error) {
	i, ok := e.meta.fieldIndex[field]
	if !ok {
		return sqldb.Null(), fmt.Errorf("ejb: entity %q has no field %q", e.meta.def.Name, field)
	}
	return e.fields[i], nil
}

// Set stores a managed field. With container-managed persistence each store
// is one single-column UPDATE. The first store opens the transaction's
// database transaction: every subsequent statement of the business method
// runs inside it, and a rollback revokes them all.
func (e *Entity) Set(field string, v sqldb.Value) error {
	i, ok := e.meta.fieldIndex[field]
	if !ok {
		return fmt.Errorf("ejb: entity %q has no field %q", e.meta.def.Name, field)
	}
	e.fields[i] = v
	e.c.ctr.Stores.Add(1)
	_, err := e.tx.execWrite(e.meta.update[field], v, e.pk)
	return err
}

// Tx is a container-managed transaction: the unit-of-work every business
// method runs in. It is backed by a real database transaction, opened
// lazily on the first write — reads before any write run on load-balanced
// pooled connections, and a purely-read method never pays for transaction
// state at all. Once a write happens, every statement of the method (reads
// included) runs on the transaction's session, Commit makes the method's
// effects atomic across all replicas, and Rollback (or a panic unwinding
// through RunInTx) erases them bit-identically.
//
// Isolation note: reads before the first write are NOT serialized against
// concurrent transactions — they are MVCC snapshot reads (each statement
// sees the last committed state, never touching the lock table), so two
// business methods can both activate an entity and then write values
// derived from the same stale read. This mirrors the paper's EJB
// configuration, whose CMP activations ran under nothing stronger than
// MyISAM's per-statement locks (the hand-written-SQL apps' LOCK TABLES
// discipline had no EJB counterpart). A method that never writes completes
// without ever opening a database transaction: snapshot-only, zero
// replication coordination.
type Tx struct {
	c    *Container
	sess *cluster.Session
	done bool
}

// Begin opens a container-managed transaction. Most callers should use
// RunInTx, which also demarcates the commit/rollback decision.
func (c *Container) Begin() *Tx { return &Tx{c: c} }

// RunInTx is container-managed transaction demarcation: the business
// method fn runs inside a fresh transaction; returning nil commits,
// returning an error rolls back, and a panic rolls back before re-raising
// — so a crashing business method can never publish partial state.
func (c *Container) RunInTx(fn func(tx *Tx) error) error {
	tx := c.Begin()
	defer func() {
		if r := recover(); r != nil {
			_ = tx.Rollback()
			panic(r)
		}
	}()
	if err := fn(tx); err != nil {
		_ = tx.Rollback()
		return err
	}
	return tx.Commit()
}

// ensureTxn lazily opens the backing database transaction. The transaction
// declares no write tables (a business method's write set is not known up
// front), so conflicting transactions serialize on the cluster's catch-all
// key when the database tier is replicated.
func (t *Tx) ensureTxn() error {
	if t.sess != nil {
		return nil
	}
	if t.done {
		return fmt.Errorf("ejb: transaction already completed")
	}
	sess, err := t.c.pool.Get()
	if err != nil {
		return err
	}
	if err := sess.Begin(); err != nil {
		t.c.pool.Put(sess, true)
		return err
	}
	t.sess = sess
	return nil
}

// Query runs a read — a CMP load, a finder, or a façade's own read outside
// the beans (a count, a reference list): on the transaction's session once
// one is open (read-your-writes), otherwise through the pool. It counts as
// one of the container's statements. Either way the cluster client caches
// a prepared statement per distinct text, so even finders run prepared
// after first use.
func (t *Tx) Query(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	t.c.ctr.Queries.Add(1)
	if t.sess != nil {
		return t.sess.Exec(query, args...)
	}
	return t.c.pool.Exec(query, args...)
}

// execWrite runs a CMP write inside the database transaction, opening it
// first if needed.
func (t *Tx) execWrite(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	if err := t.ensureTxn(); err != nil {
		return nil, err
	}
	t.c.ctr.Queries.Add(1)
	return t.sess.Exec(query, args...)
}

// end releases the backing session, committing or rolling back first.
func (t *Tx) end(commit bool) error {
	t.done = true
	if t.sess == nil {
		return nil
	}
	sess := t.sess
	t.sess = nil
	var err error
	if commit {
		err = sess.Commit()
	} else {
		err = sess.Rollback()
	}
	t.c.pool.Put(sess, err != nil)
	return err
}

// Commit commits the database transaction, if a write opened one.
func (t *Tx) Commit() error {
	if t.done {
		return fmt.Errorf("ejb: transaction already completed")
	}
	// A method that never wrote has no backing database transaction: its
	// reads ran as MVCC snapshot statements on pooled connections, and its
	// "commit" is free. Counted separately so the telemetry can show how much
	// of the transaction volume paid zero replication tax.
	ro := t.sess == nil
	if err := t.end(true); err != nil {
		t.c.ctr.Aborts.Add(1)
		return err
	}
	t.c.ctr.Commits.Add(1)
	if ro {
		t.c.ctr.ReadOnlyTxns.Add(1)
	}
	return nil
}

// Rollback aborts the transaction: the database transaction (if any
// statement opened one) rolls back on every replica. Without an open
// database transaction it is a no-op — a failing read-only method has
// nothing to undo.
func (t *Tx) Rollback() error {
	if t.done {
		return nil
	}
	err := t.end(false)
	t.c.ctr.Aborts.Add(1)
	return err
}

// Load activates an entity by primary key within the transaction.
func (t *Tx) Load(entity string, pk sqldb.Value) (*Entity, error) {
	m, err := t.c.meta(entity)
	if err != nil {
		return nil, err
	}
	t.c.ctr.Loads.Add(1)
	res, err := t.Query(m.load, pk)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("ejb: %s[%v] %w", entity, pk, ErrNotFound)
	}
	// The entity's field slice is a private copy: Set mutates it in
	// place, and the loaded row may be shared — the cluster's query cache
	// serves result rows to many callers.
	return &Entity{meta: m, c: t.c, tx: t, pk: res.Rows[0][0],
		fields: append(sqldb.Row(nil), res.Rows[0]...)}, nil
}

// FindWhere runs a CMP finder with a caller-supplied condition (the EJB-QL
// analog): SELECT key FROM table [WHERE …] [ORDER BY …] [LIMIT n],
// returning primary keys only — materializing each result costs a Load.
func (t *Tx) FindWhere(entity, whereSQL string, args []sqldb.Value, orderBy string, limit int) ([]sqldb.Value, error) {
	m, err := t.c.meta(entity)
	if err != nil {
		return nil, err
	}
	q := fmt.Sprintf("SELECT %s FROM %s", m.def.Key, m.def.Table)
	if whereSQL != "" {
		q += " WHERE " + whereSQL
	}
	if orderBy != "" {
		q += " ORDER BY " + orderBy
	}
	if limit > 0 {
		q += fmt.Sprintf(" LIMIT %d", limit)
	}
	res, err := t.Query(q, args...)
	if err != nil {
		return nil, err
	}
	return keysOf(res), nil
}

func keysOf(res *sqldb.Result) []sqldb.Value {
	keys := make([]sqldb.Value, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = r[0]
	}
	return keys
}

// Create inserts a new entity row; values follow the definition's field
// order. It returns the new primary key (AUTO_INCREMENT when the schema
// assigns it).
func (t *Tx) Create(entity string, values []sqldb.Value) (sqldb.Value, error) {
	m, err := t.c.meta(entity)
	if err != nil {
		return sqldb.Null(), err
	}
	if len(values) != len(m.def.Fields) {
		return sqldb.Null(), fmt.Errorf("ejb: %s create needs %d values, got %d",
			entity, len(m.def.Fields), len(values))
	}
	res, err := t.execWrite(m.insert, values...)
	if err != nil {
		return sqldb.Null(), err
	}
	return sqldb.Int(res.LastInsertID), nil
}

// RegisterFacade exposes a stateless session bean over RMI under name.
func (c *Container) RegisterFacade(name string, facade any) error {
	return c.rmiServer.Register(name, facade)
}

// Serve binds the RMI endpoint.
func (c *Container) Serve(addr string) (net.Addr, error) {
	return c.rmiServer.Listen(addr)
}

// Close stops the RMI server and the DB pool.
func (c *Container) Close() error {
	err := c.rmiServer.Close()
	c.pool.Close()
	return err
}

// DB exposes the container's database client (its counters and pool, for
// telemetry); a session bean's own reads go through Tx.Query.
func (c *Container) DB() *cluster.Client { return c.pool }
