// Package servlet is an application container in the mold of the Tomcat
// servlet engine the paper measures: servlets are functions registered
// under URL patterns, called with a shared context (database connection
// pool, session manager, engine-side lock manager) for each request
// arriving over the AJP listener — or directly in-process when the
// container is co-located with the web server.
//
// The engine-side lock manager is the container's analog of the Java
// synchronization the paper's "(sync)" configurations use to move table
// locking out of the database (§2.2).
//
// The database client is a cluster.Client built from Config.DB, a
// cluster.Config the container passes through untouched.
package servlet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ajp"
	"repro/internal/cluster"
	"repro/internal/httpd"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
)

// Context is the shared state handed to every servlet.
type Context struct {
	// DB is the replication-aware client to the database tier (the JDBC
	// DataSource analog; one replica degenerates to a plain pool).
	DB *cluster.Client
	// Locks is the engine-side lock manager for (sync) configurations.
	Locks *LockManager
	// Sessions tracks client sessions by cookie.
	Sessions *SessionManager
}

// WithLocks runs fn under one of the two concurrency disciplines the paper
// compares. set lists every table fn touches with its intent. With
// engineSync the engine-side lock manager serializes (the "(sync)"
// configurations); individual statements still take their own implicit
// short table locks in the database, which is harmless (§2.2). Without it
// fn runs inside a real database transaction declaring the write-intent
// tables: a short transaction whose locks are acquired per written table as
// the statements arrive and released at COMMIT — the role the PHP scripts'
// LOCK TABLES sections played, and strictly narrower, since those
// write-locked everything up front and read-locked even the read-only
// tables for the whole section. An error (or panic) rolls the whole section
// back on every replica. A set with no write intent opens no transaction:
// its reads take their own short locks statement by statement.
func (c *Context) WithLocks(engineSync bool, set []TableLock, fn func(ex sqldb.Execer) error) error {
	if c.DB == nil {
		return ErrNoDatabase
	}
	if engineSync {
		release := c.Locks.Acquire(set)
		defer release()
		return fn(c.DB)
	}
	writes := WriteTables(set)
	if len(writes) == 0 {
		return fn(c.DB)
	}
	return c.DB.WithTx(writes, func(tx *cluster.Session) error { return fn(tx) })
}

// Func is a servlet: the application logic for one URL pattern, called for
// each request with the container's shared context.
type Func func(ctx *Context, req *httpd.Request) (*httpd.Response, error)

// Config configures a container.
type Config struct {
	// DB configures the container's database client — DSN, pool size,
	// write policy, deadlines, query cache: cluster.Config documents each,
	// and is the one place a setting is declared. An empty DB.DSN means the
	// container's servlets do not use a database (presentation tiers, tests).
	DB cluster.Config
	// Route names this container in a load-balanced application tier (the
	// jvmRoute of the paper's sticky-session setups): session ids carry it
	// as a ".route" suffix, and the front-end balancer (internal/lb) pins a
	// session's requests to the backend whose route matches. Empty means
	// the container runs unreplicated and session ids stay bare.
	Route string
	// SessionStore is the write-through replication target for session
	// state. Containers sharing a store fail sessions over transparently:
	// when a pinned backend dies, the survivor restores the session from
	// the store. Nil keeps sessions container-local (affinity still works;
	// failover loses session state).
	SessionStore *MemStore
	// Locks overrides the container's engine-side lock manager. A
	// replicated tier in one process must share one manager across its
	// backends, or the (sync) configurations' engine-side table locks
	// stop excluding each other and read-modify-write interactions on
	// different backends can interleave. Nil creates a private manager
	// (the single-container behavior). Engine-side locking cannot span
	// OS processes — the paper's Java-synchronization configurations have
	// the same single-container constraint.
	Locks *LockManager
}

// Container hosts servlets.
type Container struct {
	ctx      *Context
	mux      *httpd.Mux
	listener *ajp.Listener

	mu      sync.Mutex
	started bool
	closed  bool

	// ctr is the counter cell, named after the telemetry.Tier field it fills.
	ctr struct{ Requests atomic.Int64 }
}

// Telemetry is the container's servlet-tier row: requests dispatched to
// servlets and, when the container has a database, its cluster client's
// counters and pool.
func (c *Container) Telemetry() telemetry.Tier {
	t := telemetry.Tier{Name: "servlet"}
	telemetry.Load(&t, &c.ctr)
	if cl := c.ctx.DB; cl != nil {
		ps := cl.Stats()
		t.Pool, t.Downstream, t.ClusterStats = &ps, "db", cl.ClientStats()
	}
	return t
}

// NewContainer creates a container. Call Register, then Start (AJP) and/or
// mount it in-process via Handler().
func NewContainer(cfg Config) *Container {
	sm := NewSessionManager()
	sm.route, sm.store = cfg.Route, cfg.SessionStore
	locks := cfg.Locks
	if locks == nil {
		locks = NewLockManager()
	}
	ctx := &Context{
		Locks:    locks,
		Sessions: sm,
	}
	if cfg.DB.DSN != "" {
		ctx.DB = cluster.NewWithConfig(cfg.DB)
	}
	return &Container{ctx: ctx, mux: httpd.NewMux()}
}

// Context returns the container's shared context.
func (c *Container) Context() *Context { return c.ctx }

// Register adds a servlet under a URL pattern (httpd.Mux semantics). It
// must be called before Start.
func (c *Container) Register(pattern string, s Func) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		panic("servlet: Register after Start")
	}
	c.mux.Handle(pattern, httpd.HandlerFunc(func(req *httpd.Request) (*httpd.Response, error) {
		c.ctr.Requests.Add(1)
		// The content epoch is captured BEFORE the servlet renders: if a
		// commit lands mid-render the page's tag understates its freshness
		// and an edge page cache (internal/lb.PageCache) discards it — the
		// conservative direction. An HTTP response header, not a database
		// wire frame: the caching tier adds nothing to protocol v3.
		var epoch uint64
		if c.ctx.DB != nil {
			epoch = c.ctx.DB.ContentEpoch()
		}
		resp, err := s(c.ctx, req)
		if resp != nil && c.ctx.DB != nil {
			resp.Header.Set("X-Content-Epoch", strconv.FormatUint(epoch, 10))
		}
		return resp, err
	}))
}

// Start serves AJP on addr, returning the bound address. Register panics
// from then on.
func (c *Container) Start(addr string) (net.Addr, error) {
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	l := ajp.NewListener(c.mux)
	bound, err := l.Listen(addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.listener = l
	c.mu.Unlock()
	return bound, nil
}

// Handler exposes the container as an httpd.Handler for in-process mounting
// (the co-located configurations avoid real AJP sockets only in tests; the
// benchmarks use AJP even co-located, as Apache+Tomcat do).
func (c *Container) Handler() httpd.Handler { return c.mux }

// Close stops the listener and closes the DB pool.
func (c *Container) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	l := c.listener
	c.mu.Unlock()
	if l != nil {
		l.Close()
	}
	if c.ctx.DB != nil {
		c.ctx.DB.Close()
	}
	return nil
}

// LockManager provides named engine-side locks. The (sync) configurations
// acquire the same logical tables here instead of issuing LOCK TABLES,
// relieving the database of lock contention (§2.2, §5.1). Multi-table sets
// are acquired in sorted order to avoid deadlock, mirroring MySQL.
type LockManager struct {
	mu    sync.Mutex
	locks map[string]*sync.RWMutex
}

// NewLockManager returns an empty manager.
func NewLockManager() *LockManager {
	return &LockManager{locks: make(map[string]*sync.RWMutex)}
}

func (lm *LockManager) lock(name string) *sync.RWMutex {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l, ok := lm.locks[name]
	if !ok {
		l = &sync.RWMutex{}
		lm.locks[name] = l
	}
	return l
}

// TableLock names one table and the intent in an Acquire set.
type TableLock struct {
	Table string
	Write bool
}

// WriteTables extracts the write-intent tables of a lock set, sorted — the
// table declaration WithLocks gives the database transaction a lock set
// runs as when it does not take engine locks.
func WriteTables(set []TableLock) []string {
	var out []string
	for _, tl := range set {
		if tl.Write {
			out = append(out, tl.Table)
		}
	}
	sort.Strings(out)
	return out
}

// Acquire locks the set and returns a release function. Duplicate tables
// merge to the strongest intent.
func (lm *LockManager) Acquire(set []TableLock) (release func()) {
	merged := make(map[string]bool, len(set))
	for _, tl := range set {
		merged[tl.Table] = merged[tl.Table] || tl.Write
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	type held struct {
		l     *sync.RWMutex
		write bool
	}
	hs := make([]held, 0, len(names))
	for _, n := range names {
		l := lm.lock(n)
		if merged[n] {
			l.Lock()
		} else {
			l.RLock()
		}
		hs = append(hs, held{l, merged[n]})
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := len(hs) - 1; i >= 0; i-- {
				if hs[i].write {
					hs[i].l.Unlock()
				} else {
					hs[i].l.RUnlock()
				}
			}
		})
	}
}

// SessionManager tracks client sessions via the httpd.SessionCookie. In a
// replicated application tier it is configured (servlet.Config) with a
// route — appended to session ids as ".route", the jvmRoute the front-end
// balancer pins on — and a shared MemStore that every attribute write
// goes through, so any replica can restore a session it has never seen.
type SessionManager struct {
	route string
	store *MemStore

	mu   sync.Mutex
	next int64
	byID map[string]*Session
}

// Session is per-client state. Attribute values must be gob-encodable
// (register custom types with gob.Register) when a session store is
// configured; mutating a stored value in place does not replicate — call
// Set again to publish, the same contract Java session replication places
// on setAttribute.
type Session struct {
	ID string

	store *MemStore
	mu    sync.Mutex
	attrs map[string]any
	ver   uint64 // store version this copy reflects
}

// Set stores a session attribute and, with a store configured, publishes
// the session's state to it (write-through replication).
func (s *Session) Set(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = v
	s.publishLocked()
}

// publishLocked replicates the attribute map to the store. An encode
// failure (an attribute type not registered with gob) keeps the session
// serving locally — only failover transparency is lost for this session.
func (s *Session) publishLocked() {
	if s.store == nil {
		return
	}
	if data, err := encodeAttrs(s.attrs); err == nil {
		s.ver = s.store.Save(s.ID, data)
	}
}

// refresh reloads the session from the store when the store holds a newer
// version — the session served requests on another backend since this
// container last saw it (failover, or a rebalanced pin).
func (s *Session) refresh() {
	if s.store == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.store.Version(s.ID)
	if !ok || v == s.ver {
		return
	}
	data, ver, ok := s.store.Load(s.ID)
	if !ok {
		return
	}
	if attrs, err := decodeAttrs(data); err == nil {
		s.attrs, s.ver = attrs, ver
	}
}

// Get loads a session attribute.
func (s *Session) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.attrs[key]
	return v, ok
}

// NewSessionManager returns an empty manager.
func NewSessionManager() *SessionManager {
	return &SessionManager{byID: make(map[string]*Session)}
}

// Len returns the number of live sessions.
func (m *SessionManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byID)
}

// Lookup finds the request's session via its cookie, or nil. With a store
// configured, a locally unknown session is restored from the store (the
// failover path), and a known one is refreshed if the store has moved on.
func (m *SessionManager) Lookup(req *httpd.Request) *Session {
	id := httpd.CookieValue(req.Header.Get("Cookie"), httpd.SessionCookie)
	if id == "" {
		return nil
	}
	m.mu.Lock()
	s := m.byID[id]
	m.mu.Unlock()
	if m.store == nil || s != nil {
		if s != nil {
			s.refresh()
		}
		return s
	}
	data, ver, ok := m.store.Load(id)
	if !ok {
		return nil
	}
	attrs, err := decodeAttrs(data)
	if err != nil {
		return nil
	}
	s = &Session{ID: id, store: m.store, attrs: attrs, ver: ver}
	m.mu.Lock()
	if cur, dup := m.byID[id]; dup {
		s = cur // lost a restore race; the winner is canonical
	} else {
		m.byID[id] = s
	}
	m.mu.Unlock()
	return s
}

// Ensure returns the request's session, creating one and setting the
// response cookie if needed. New ids carry the manager's route as a
// ".route" suffix, the affinity tag internal/lb pins on.
func (m *SessionManager) Ensure(req *httpd.Request, resp *httpd.Response) *Session {
	if s := m.Lookup(req); s != nil {
		return s
	}
	m.mu.Lock()
	m.next++
	id := fmt.Sprintf("s%08x", m.next)
	if m.route != "" {
		id += "." + m.route
	}
	s := &Session{ID: id, store: m.store}
	m.byID[id] = s
	m.mu.Unlock()
	resp.Header.Set("Set-Cookie", httpd.SessionCookie+"="+id+"; Path=/")
	return s
}

// ErrNoDatabase is returned by servlets that need a database when the
// container was configured without one.
var ErrNoDatabase = errors.New("servlet: container has no database pool")
