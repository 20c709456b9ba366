// Package cluster is the replication-aware database client: it fans one
// logical database out over N internal/sqldb wire backends with
// read-one-write-all semantics, the C-JDBC-style clustering middleware the
// paper's authors name as the way past the single-database bottleneck.
//
// A Client is one topology, a shard set (shard.go) of replica-set groups
// (replica.go), whatever the DSN names: a DSN with no ';' is a set of one
// group, run by the same code, and a Session is the shard set's transaction
// coordinator. The application sees one surface — Exec, Get/Put, WithTx —
// and every statement takes the wire protocol's prepared path, the only one
// the wire client has. A distinct text is parsed and planned once client-side
// (route.go's analyze); routing, the query cache's table set and the shard
// target all read that one plan, and a text the parser rejects fails there,
// with the error the database would send, before any connection or lock is
// taken.
//
// Two things the tiers above share are declared once: Config is the only
// declaration of a database-client setting (servlet and ejb embed it whole),
// and ClientStats is telemetry.ClusterStats, the struct the owning tier's
// telemetry row embeds.
//
// Routing policy: reads load-balance across healthy replicas (least
// borrowed connections first, round-robin on ties, using the transport
// pool's counters, skipping replicas whose rejoin sync is still running);
// writes — and every statement of a write transaction — broadcast to every
// healthy replica, serialized per table by a cluster-wide write-order lock
// so all backends apply conflicting writes in one global order. The
// broadcast itself is batched: the statement fans out to all replicas
// concurrently and the acks are awaited together, so a broadcast costs one
// round-trip time instead of N sequential ones. Ordering is unaffected —
// conflicting writes are serialized by the write-order locks held across
// the whole fan-out, so no replica can observe two conflicting statements
// in different orders. That plus identical seeding is what keeps replicas
// bit-identical (AUTO_INCREMENT assignment included) without a
// database-level replication log.
//
// Read-only work needs no transaction: a session's reads outside one take
// the auto-commit path, where the engine's MVCC serves them from committed
// snapshots — no broadcast, no write-order lock, no connection held.
//
// Which code a statement runs depends on one bit — is a transaction open —
// not on the replica count and not on whether the caller holds the Client or
// a Session: outside a transaction a Session's statements take the Client's
// auto-commit path, and the session holds no connection.
//
// The write policy is write-all-available, and there is no other: a replica
// that fails at the transport level is ejected, reads fail over
// transparently, and writes succeed on the remaining replicas. An ejected
// replica rejoins through Rejoin, which replays a healthy replica's data over
// the wire — the same replica-sync path a fresh dbserver -peers uses at
// startup.
package cluster

import (
	"errors"
	"flag"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
)

// ErrNoReplicas is returned when every replica has been ejected.
var ErrNoReplicas = errors.New("cluster: no healthy replicas")

// ErrTxnControlText rejects BEGIN, COMMIT and ROLLBACK sent as statement
// text, before any connection is borrowed: transactions are demarcated with
// Session.Begin/Commit/Rollback (or WithTx), which also take the
// write-order locks the text cannot declare. The spellings the dialect
// leaves out (START TRANSACTION, BEGIN WORK, ...) are the database's parse
// error, refused at the same point.
var ErrTxnControlText = errors.New("cluster: transaction control sent as a statement; use Begin/Commit/Rollback or WithTx")

var errSessionFailed = errors.New("cluster: session failed, discard it")

// DefaultSyncTimeout bounds a rejoin's data copy. Syncing a testbed-scale
// data set takes well under a second; half a minute means the source or
// the joiner stalled.
const DefaultSyncTimeout = 30 * time.Second

// Config configures a Client.
type Config struct {
	// DSN is the multi-backend address list: "host:port[,host:port...]".
	// A single address runs the same statement paths as any other count —
	// a broadcast of one — and never ejects its only backend.
	DSN string
	// PoolSize bounds connections per replica (default 12).
	PoolSize int
	// Timeouts bounds dials, per-operation round trips and pool borrow
	// waits on every replica pool (zero fields: pool-package defaults;
	// negative: unbounded). A stalled replica thus surfaces as a transport
	// error — and is ejected — instead of hanging a broadcast.
	Timeouts pool.Timeouts
	// SlowThreshold ejects a replica whose broadcast ack lags the fastest
	// ack (or whose read exceeds the threshold outright) by more than this
	// — the slow-but-not-stalled replica that drags every write to its
	// speed, since a broadcast completes at the slowest ack. 0 disables
	// latency-based ejection (the default: only transport failures eject).
	SlowThreshold time.Duration
	// SyncTimeout bounds a Rejoin's data copy (0: DefaultSyncTimeout;
	// negative: unbounded). On expiry the replica is left cleanly ejected
	// and marked half-synced rather than promoted.
	SyncTimeout time.Duration
	// QueryCache bounds the client's query-result cache (cache.go): cached
	// SELECT results are served while every referenced table's commit-time
	// version is unchanged. 0 (the default) disables the cache; version
	// publication still runs so other clients' caches — and the page-cache
	// content epoch — stay coherent.
	QueryCache int
	// ShardBy maps table name -> shard-key column for horizontal
	// partitioning (shard.go). Consulted only when DSN names more than one
	// shard group (';'-separated); tables absent from the map are global —
	// replicated on every shard. Names are case-insensitive.
	ShardBy map[string]string
}

// BindFlags declares the database-client flags on fs, bound to c's fields.
// Every daemon with a database tier below it calls this, so the flags are
// declared once.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.DSN, "db", "127.0.0.1:7306", "database DSN: one wire address, a comma-separated replica list, or semicolon-separated shard groups of replica lists (\"s0r0,s0r1;s1r0,s1r1\" — sharded tiers partition by the benchmark's ShardBy map)")
	fs.IntVar(&c.PoolSize, "pool", 12, "database connection pool size, per replica")
	fs.DurationVar(&c.Timeouts.Dial, "db-dial", 0, "database dial timeout (0: default, negative: none)")
	fs.DurationVar(&c.Timeouts.Op, "db-op", 0, "per-statement database deadline (0: default, negative: none)")
	fs.DurationVar(&c.Timeouts.Wait, "db-wait", 0, "max wait for a free pooled connection (0: default, negative: unbounded)")
	fs.DurationVar(&c.SlowThreshold, "db-slow", 0, "eject replicas whose statements exceed this latency (0: disabled)")
	fs.DurationVar(&c.SyncTimeout, "db-sync", 0, "wall-clock budget for replica rejoin data sync (0: cluster default)")
	fs.IntVar(&c.QueryCache, "db-cache", 0, "query-result cache entries, validated by commit-time table versions (0: disabled)")
}

// ParseDSN splits a multi-backend DSN into its replica addresses.
func ParseDSN(dsn string) []string {
	var addrs []string
	for _, a := range strings.Split(dsn, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// Client is the replicated database client, safe for concurrent use. It
// presents the same surface as a single wire.Pool — Exec for pool-routed
// statements, Get/Put for the logical sessions transactions run on —
// whatever topology the DSN names.
type Client struct {
	*shardSet
	closed atomic.Bool
}

// ClientStats is the client's counters. The struct is declared once, in
// internal/telemetry, so the tier row that owns a client embeds this very
// type and nothing between here and /status copies fields.
type ClientStats = telemetry.ClusterStats

// counters is the client's atomic counter cells, embedded by replicaSet and
// shardSet. Each cell is named after the ClientStats field it fills
// (telemetry.Load), so a counter is declared here and in
// telemetry.ClusterStats and nowhere else.
type counters struct {
	Broadcasts, BroadcastAcks, SlowEjections                  atomic.Int64
	ShardSingle, ShardScatter, ShardBroadcast, Shard2PCTxns   atomic.Int64
	QueryCacheHits, QueryCacheMisses, QueryCacheInvalidations atomic.Int64
	QueryCacheBypasses, WALFullSyncs                          atomic.Int64
}

// New creates a client over the DSN's replicas with default settings.
func New(dsn string, poolSize int) *Client {
	return NewWithConfig(Config{DSN: dsn, PoolSize: poolSize})
}

// NewWithConfig creates a client over the DSN's shard groups (shard.go),
// each a replica set with this same configuration over its own replica
// subset. A DSN with no ';' is a set of one group.
func NewWithConfig(cfg Config) *Client {
	return &Client{shardSet: newShardSet(cfg, ParseShardDSN(cfg.DSN))}
}

// Deprecated: ExecCached is Exec.
func (c *Client) ExecCached(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return c.Exec(query, args...)
}

// Get opens a logical session, the unit a transaction runs on. It borrows
// nothing: a transaction's reads pin to one load-balanced replica, picked
// when the transaction begins, and its writes broadcast to every healthy
// replica in order; with no transaction open the session's statements are
// the Client's own.
func (c *Client) Get() (*Session, error) {
	if c.closed.Load() {
		return nil, errors.New("cluster: client closed")
	}
	return &Session{c.newTxn()}, nil
}

// Put returns a session. Pass broken=true when its transaction did not end
// cleanly: every borrowed connection is discarded, so each server rolls the
// transaction back, exactly like discarding a single connection. A session
// returned with its transaction still open is treated the same way.
func (c *Client) Put(s *Session, broken bool) {
	if s != nil {
		s.end(broken)
	}
}

// Close closes every replica pool and releases the client's slot in the
// shared write-order lock registry.
func (c *Client) Close() {
	if c.closed.CompareAndSwap(false, true) {
		c.close()
	}
}

// Session is one logical connection over the cluster — what the
// application borrows around a transaction, demarcated with Begin and
// Commit/Rollback. It is the shard set's transaction coordinator (shardTxn),
// over one group as over several. Not safe for concurrent use, like the wire
// connection it replaces.
type Session struct {
	*shardTxn
}

var (
	_ sqldb.Execer = (*Client)(nil)
	_ sqldb.Execer = (*Session)(nil)
)

// Exec runs one statement on the session. DDL the engine commits an open
// transaction before — CREATE TABLE, CREATE INDEX, ALTER TABLE …
// AUTO_INCREMENT — commits the session's transaction first and runs in
// auto-commit, on every topology, as Begin does for a nested BEGIN.
func (s *Session) Exec(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	rt := s.sh.routes.of(query)
	if rt.commits && s.inTxn && !s.failed {
		if err := s.Commit(); err != nil {
			return nil, err
		}
	}
	return s.exec(rt, query, args)
}

// Deprecated: ExecCached is Exec.
func (s *Session) ExecCached(query string, args ...sqldb.Value) (*sqldb.Result, error) {
	return s.Exec(query, args...)
}

// Begin opens a transaction across the cluster. tables declares the tables
// the transaction intends to write: their cluster-wide write-order locks
// are taken (in sorted order) for the whole transaction, so concurrent
// transactions on disjoint tables proceed in parallel while conflicting
// ones serialize — which is what keeps every replica applying conflicting
// transactions in one global order, aborts included. With no declaration
// the transaction serializes on the catch-all key.
//
// The BEGIN frame is pipelined: it rides to each replica with the
// transaction's first statement, so opening costs no extra round trip. A
// transaction already open is committed first, as the database itself would
// on BEGIN.
func (s *Session) Begin(tables ...string) error {
	if s.failed {
		return errSessionFailed
	}
	if s.inTxn {
		if err := s.Commit(); err != nil {
			return err
		}
	}
	return s.begin(normalize(tables))
}

// WithTx runs fn inside one database transaction: a session is borrowed, a
// transaction declaring the given write tables is opened on it, and fn's
// outcome decides the verdict — nil commits, an error (or a panic, which is
// re-raised after cleanup) rolls back, restoring every replica to its
// pre-transaction state. This is the short transaction the application hot
// paths run their critical sections in, and the demarcation primitive the
// EJB container wraps business methods in.
func (c *Client) WithTx(tables []string, fn func(tx *Session) error) error {
	return c.withTx(func(s *Session) error { return s.Begin(tables...) }, fn)
}

// Deprecated: WithReadTx runs fn on a borrowed session with no transaction
// open; read-only work needs none.
func (c *Client) WithReadTx(fn func(tx *Session) error) error {
	return c.withTx(func(*Session) error { return nil }, fn)
}

// withTx borrows a session, opens a transaction on it with begin, runs fn
// and commits or rolls back on its outcome.
func (c *Client) withTx(begin func(*Session) error, fn func(tx *Session) error) (err error) {
	s, err := c.Get()
	if err != nil {
		return err
	}
	broken := false
	committed := false
	defer func() {
		if r := recover(); r != nil {
			s.Rollback() // best effort; end() discards the conns regardless
			c.Put(s, true)
			panic(r)
		}
		if !committed && s.inTxn {
			if rbErr := s.Rollback(); rbErr != nil {
				broken = true
			}
		}
		c.Put(s, broken)
	}()
	if err := begin(s); err != nil {
		broken = true
		return err
	}
	if err := fn(s); err != nil {
		return err
	}
	if err := s.Commit(); err != nil {
		broken = true
		return err
	}
	committed = true
	return nil
}
