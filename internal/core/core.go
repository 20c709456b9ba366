// Package core is the experiment laboratory: it assembles any of the
// paper's six middleware configurations as a real multi-tier system over
// loopback TCP — web server (internal/httpd), dynamic-content generator
// (in-process module, servlet container over AJP, or servlet+EJB over
// AJP+RMI), and the SQL database (internal/sqldb over its wire protocol) —
// populates a benchmark database, and drives it with the client emulator.
// The tiers themselves are built by internal/stack, the constructors the
// daemons under cmd/ call too; core adds topology, chaos and telemetry.
//
// This is the functional half of the reproduction: it demonstrates that
// every architecture serves both benchmarks correctly and exposes their
// structural differences (dispatch path, query counts, locking discipline).
// The performance half — regenerating the paper's figures, which requires
// the four-machine cluster — lives in the perfsim package; see DESIGN.md.
package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/ejb"
	"repro/internal/httpd"
	"repro/internal/lb"
	"repro/internal/pool"
	"repro/internal/rmi"
	"repro/internal/servlet"
	"repro/internal/sqldb"
	"repro/internal/sqldb/walfault"
	"repro/internal/sqldb/wire"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// poolSize bounds every transport pool the lab opens: the database
// connections per replica, the AJP connector per app backend and, in the
// EJB architecture, the presentation tier's RMI client.
const poolSize = 12

// Config selects what to assemble.
type Config struct {
	// Arch is one of the six configurations (perfsim.Arch is this type).
	Arch arch.Arch
	// Benchmark selects the application.
	Benchmark arch.Benchmark
	// BookScale / AuctionScale size the population; zero values use the
	// packages' TinyScale, keeping Start fast.
	BookScale    bookstore.Scale
	AuctionScale auction.Scale
	// DBReplicas runs the database tier as that many identically seeded
	// backends behind the read-one-write-all cluster client (default 1 —
	// the paper's single-database testbed). With DBShards > 1 it is the
	// replica count per shard.
	DBReplicas int
	// DBShards horizontally partitions the database tier into that many
	// shard groups of DBReplicas backends each (default 1 — unsharded).
	// The benchmark's write-heavy tables partition by the application's
	// ShardBy map (bookstore.ShardBy / auction.ShardBy); everything else
	// replicates to every shard as global tables. The population is
	// routed through a sharded cluster client so each row lives only on
	// its owning shard.
	DBShards int
	// AppReplicas runs the application tier as that many container
	// backends behind the front-end load balancer (internal/lb): N servlet
	// containers, or N EJB container + presentation pairs in the EJB
	// architecture, with session affinity and write-through session-state
	// replication between them. Default 1 — the paper's single-container
	// testbed, dispatched without a balancer. The in-process scripting
	// module (ArchPHP) ignores it: mod_php is pinned to the web server's
	// address space by construction (§2.1).
	AppReplicas int
	// Seed drives data generation.
	Seed int64
	// DBTimeouts bounds the app→db wire transport: dial, per-statement
	// round trip, and pool-wait deadlines (pool.Timeouts semantics — zero
	// fields take the transport defaults, negative disables).
	DBTimeouts pool.Timeouts
	// DBSlowThreshold ejects a database replica whose broadcast acks lag
	// the fastest replica by more than this (0: disabled).
	DBSlowThreshold time.Duration
	// DBQueryCache bounds each app-tier cluster client's query-result
	// cache in entries (0, the default, disables it — the paper's measured
	// system regenerates every result).
	DBQueryCache int
	// DBDataDir enables durability: each database backend gets a
	// write-ahead log under DBDataDir/r<i>. A backend whose directory
	// already holds log or checkpoint state recovers from it (replaying
	// past the last checkpoint) instead of repopulating from the seed.
	// Empty (the default) runs the backends purely in memory.
	DBDataDir string
	// DBWALFaults arms crash-point hooks on individual backends' logs,
	// keyed by backend index (the kill-and-recover test harness; see
	// sqldb/walfault). Only meaningful with DBDataDir.
	DBWALFaults map[int]*walfault.Hook
	// PageCache bounds the front-end HTTP page cache in entries (0, the
	// default, disables it). When enabled it wraps the application handler
	// — balancer, single connector, or in-process scripting module alike —
	// and serves anonymous browse GETs without touching the app tier.
	PageCache int
	// PageCacheTTL is the page cache's freshness backstop (default
	// lb.DefaultPageTTL).
	PageCacheTTL time.Duration
	// AppTimeouts bounds the web→app AJP transport and, in the EJB
	// architecture, the presentation→EJB RMI transport.
	AppTimeouts pool.Timeouts
	// Chaos interposes a fault-injecting TCP proxy (internal/chaos) on
	// every cross-tier link: one in front of each database replica (the
	// app tier dials the proxies) and one in front of each AJP backend.
	// The proxies start transparent; faults are played on the proxies
	// DBProxy(i) / AppProxy(i) return.
	Chaos bool
}

func (c Config) withDefaults() Config {
	if c.BookScale == (bookstore.Scale{}) {
		c.BookScale = bookstore.TinyScale()
	}
	if c.AuctionScale == (auction.Scale{}) {
		c.AuctionScale = auction.TinyScale()
	}
	if c.DBReplicas <= 0 {
		c.DBReplicas = 1
	}
	if c.DBShards <= 0 {
		c.DBShards = 1
	}
	if c.AppReplicas <= 0 {
		c.AppReplicas = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Lab is a running configuration.
type Lab struct {
	cfg     Config
	app     *stack.App
	dbs     []*sqldb.DB    // one per replica, identically seeded
	dbSrvs  []*wire.Server // closed (but kept, for final counters) once stopped
	dbAddrs []string
	walDirs []string // per-backend WAL directories; empty without DBDataDir
	web     *httpd.Server
	webAddr string

	// dbRetired[i] is what the servers and engines of backend i that a
	// restart replaced counted, so its counters never go backwards.
	dbRetired []telemetry.Tier

	// Chaos proxies (Config.Chaos): dbProxies[i] fronts database replica
	// i — the app tier dials it instead of dbAddrs[i] — and appProxies[i]
	// fronts app backend i's AJP listener.
	dbProxies  []*chaos.Proxy
	appProxies []*chaos.Proxy

	// The application tier: index i across these slices is one backend
	// (route "a<i>"). One entry and no balancer in the paper's single
	// container setups, the PHP configuration's in-process one included;
	// N entries behind the balancer with AppReplicas.
	containers []*servlet.Container
	ejbCs      []*ejb.Container
	rmiClients []*rmi.Client
	// front is the web tier: the connectors to those backends, the
	// balancer over them and the page cache (stack.NewFront).
	front *stack.Front
}

// app maps the configuration to its application descriptor — the one place
// core decides which application it runs.
func (c Config) app() (*stack.App, error) {
	switch c.Benchmark {
	case arch.Bookstore:
		return stack.Bookstore(c.BookScale), nil
	case arch.Auction:
		return stack.Auction(c.AuctionScale), nil
	}
	return nil, fmt.Errorf("core: unknown benchmark %v", c.Benchmark)
}

// Start assembles and boots the configuration.
func Start(cfg Config) (lab *Lab, err error) {
	cfg = cfg.withDefaults()
	l := &Lab{cfg: cfg}
	defer func() {
		if err != nil {
			l.Close()
		}
	}()

	app, err := cfg.app()
	if err != nil {
		return nil, err
	}
	l.app = app

	// --- database tier: DBShards × DBReplicas backends. Unsharded, every
	// backend is populated in-process from the seed (the startup
	// replica-sync path of a single-process lab — deterministic population
	// from one seed is equivalent to copying, and much faster). Sharded,
	// the backends start empty and schema + population are routed through
	// a sharded cluster client below, so each row lands only on its
	// owning shard (and global tables on all of them). ---
	for i := 0; i < cfg.DBShards*cfg.DBReplicas; i++ {
		walDir := ""
		if cfg.DBDataDir != "" {
			walDir = filepath.Join(cfg.DBDataDir, fmt.Sprintf("r%d", i))
		}
		opts := l.walOpts(i, walDir)
		var fill func(sqldb.Execer) error
		if cfg.DBShards == 1 {
			fill = func(db sqldb.Execer) error { return app.Seed(db, cfg.Seed) }
		} else if !sqldb.WALDirHasState(walDir) {
			// A fresh shard backend stays bare and unlogged here: it is
			// seeded through the sharded client below, and only then logged.
			opts.Dir = ""
		}
		db, _, err := stack.OpenDB(opts, fill)
		if err != nil {
			return nil, fmt.Errorf("core: replica %d: %w", i, err)
		}
		srv := wire.NewServer(db, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		l.dbs = append(l.dbs, db)
		l.dbSrvs = append(l.dbSrvs, srv)
		l.dbRetired = append(l.dbRetired, telemetry.Tier{})
		l.dbAddrs = append(l.dbAddrs, addr.String())
		l.walDirs = append(l.walDirs, walDir)
	}
	if cfg.DBShards > 1 {
		recovered := 0
		for _, db := range l.dbs {
			if db.WAL() != nil {
				recovered++
			}
		}
		switch recovered {
		case 0:
			// Seeded through a sharded client that dials the replica
			// servers directly, never the chaos proxies — an injected fault
			// must not corrupt the population. The WAL attaches afterwards
			// so the routed rows land in each shard's initial checkpoint.
			seedCfg := cluster.Config{DSN: l.shardDSN(l.dbAddrs), PoolSize: poolSize}
			if err := app.SeedCluster(seedCfg, cfg.Seed); err != nil {
				return nil, err
			}
			for i, db := range l.dbs {
				if l.walDirs[i] == "" {
					continue
				}
				if _, err := db.AttachWAL(l.walOpts(i, l.walDirs[i])); err != nil {
					return nil, fmt.Errorf("core: attach wal replica %d: %w", i, err)
				}
			}
		case len(l.dbs):
			// Every backend recovered its shard's data; nothing to seed.
		default:
			return nil, fmt.Errorf("core: %d of %d sharded backends recovered durable state; partial recovery is not supported", recovered, len(l.dbs))
		}
	}

	// --- chaos interposition: the app tier dials fault-injecting proxies
	// instead of the replica servers; the real listen addresses stay in
	// dbAddrs so RestartReplica re-listens where the proxy forwards ---
	dialAddrs := l.dbAddrs
	if cfg.Chaos {
		dialAddrs = make([]string, len(l.dbAddrs))
		for i, addr := range l.dbAddrs {
			px, err := chaos.Listen(addr)
			if err != nil {
				return nil, err
			}
			l.dbProxies = append(l.dbProxies, px)
			dialAddrs[i] = px.Addr()
		}
	}

	// --- application tier ---
	backends, err := l.startAppTier(l.shardDSN(dialAddrs))
	if err != nil {
		return nil, err
	}

	// --- web tier: the page cache mounts between the web server and
	// whatever generates dynamic content — balancer, single connector, or
	// in-process module — so every architecture gets the same edge. The
	// content epoch is read directly off an app-tier cluster client (all
	// clients share the per-DSN version registry, so any one of them sees
	// every committed write); the X-Content-Epoch response header covers
	// the cross-process deployments (cmd/webserver). ---
	pcfg := lb.PageCacheConfig{MaxEntries: cfg.PageCache, TTL: cfg.PageCacheTTL, Epoch: l.Cluster().ContentEpoch}
	l.front = stack.NewFront(app.BasePath, backends, pcfg, stack.DefaultImageBytes)
	mux := l.front.Mux
	mux.HandleFunc("/status", func(*httpd.Request) (*httpd.Response, error) {
		resp := httpd.NewResponse()
		resp.Header.Set("Content-Type", "application/json")
		resp.Body = l.Telemetry().JSON()
		return resp, nil
	})
	l.web = httpd.NewServer(mux, nil)
	webAddr, err := l.web.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l.webAddr = webAddr.String()
	return l, nil
}

// shardDSN groups the given backend addresses into the cluster DSN:
// DBShards semicolon-separated shard groups of DBReplicas comma-separated
// replicas each, in backend order. Unsharded it degenerates to the plain
// replica list.
func (l *Lab) shardDSN(addrs []string) string {
	r := l.cfg.DBReplicas
	groups := make([]string, 0, l.cfg.DBShards)
	for i := 0; i < len(addrs); i += r {
		groups = append(groups, strings.Join(addrs[i:i+r], ","))
	}
	return strings.Join(groups, ";")
}

// startAppTier builds the dynamic-content generator for the configured
// architecture out of the stack constructors and returns what the web tier
// dispatches to: the in-process container's handler or one AJP connector as
// a single backend, or — with AppReplicas > 1 — N container backends sharing a
// write-through session store, for the front-end load balancer.
func (l *Lab) startAppTier(dsn string) ([]lb.Backend, error) {
	cfg, app := l.cfg, l.app
	// Every database client in the tier — one per servlet backend, or one
	// per EJB container — is configured alike.
	dbCfg := cluster.Config{
		DSN: dsn, PoolSize: poolSize, Timeouts: cfg.DBTimeouts,
		SlowThreshold: cfg.DBSlowThreshold, QueryCache: cfg.DBQueryCache,
	}
	sync := cfg.Arch.EngineSync()
	replicas := cfg.AppReplicas
	// The in-process module has no replication axis (mod_php is pinned to
	// the web server, §2.1): no session store, no shared locks, no routes.
	if cfg.Arch == arch.PHP {
		replicas = 1
	}
	// Replicated backends share the session store AND the engine-side lock
	// manager: the (sync) configurations' correctness rests on one
	// process-wide lock table — per-backend managers would let two
	// backends' read-modify-write interactions interleave.
	var sessions *servlet.MemStore
	var sharedLocks *servlet.LockManager
	if replicas > 1 {
		sessions, sharedLocks = servlet.NewMemStore(), servlet.NewLockManager()
	}
	// appRoute names backend i; with one backend there is no balancer and
	// session ids stay bare (the pre-replication behavior).
	appRoute := func(i int) string {
		if replicas == 1 {
			return ""
		}
		return fmt.Sprintf("a%d", i)
	}
	newAppContainer := func(i int) *servlet.Container {
		return app.ServletBackend(servlet.Config{
			DB: dbCfg, Route: appRoute(i), SessionStore: sessions, Locks: sharedLocks,
		}, sync)
	}
	// startBackend serves an initialized container over AJP as the next
	// backend; dials collects where the web tier reaches each of them.
	var dials []string
	startBackend := func(c *servlet.Container) error {
		l.containers = append(l.containers, c)
		addr, err := c.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		dial := addr.String()
		if cfg.Chaos {
			px, err := chaos.Listen(dial)
			if err != nil {
				return err
			}
			l.appProxies = append(l.appProxies, px)
			dial = px.Addr()
		}
		dials = append(dials, dial)
		return nil
	}

	switch cfg.Arch {
	case arch.PHP:
		// mod_php: the generator runs in the web server's address space, so
		// dispatch is a call of the container's handler, no IPC (§2.1) —
		// and therefore no replication axis.
		c := newAppContainer(0)
		l.containers = append(l.containers, c)
		return []lb.Backend{{Handler: c.Handler()}}, nil

	case arch.Servlet, arch.ServletSync, arch.ServletDedicated, arch.ServletDedicatedSync:
		// Servlet containers in their own process boundary, reached over
		// AJP. Co-located and dedicated differ only in machine placement,
		// which a single host cannot express; both run the identical
		// software path here (the placement effect is perfsim's domain).
		for i := 0; i < replicas; i++ {
			if err := startBackend(newAppContainer(i)); err != nil {
				return nil, err
			}
		}

	case arch.EJB:
		// Four tiers: web -> (AJP) presentation servlets -> (RMI) session
		// façade + entity beans -> database. Each backend is a complete
		// presentation + EJB container pair, as a JOnAS farm would deploy.
		for i := 0; i < replicas; i++ {
			ec, rmiAddr, err := app.EJBServer(dbCfg, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			l.ejbCs = append(l.ejbCs, ec)
			rc, pc := app.PresentationBackend(rmiAddr.String(), poolSize, cfg.AppTimeouts,
				servlet.Config{Route: appRoute(i), SessionStore: sessions})
			l.rmiClients = append(l.rmiClients, rc)
			if err := startBackend(pc); err != nil {
				return nil, err
			}
		}

	default:
		return nil, fmt.Errorf("core: unknown architecture %v", cfg.Arch)
	}
	return stack.Connect(strings.Join(dials, ","), poolSize, cfg.AppTimeouts)
}

// WebAddr returns the web server's host:port.
func (l *Lab) WebAddr() string { return l.webAddr }

// Profile returns the benchmark's workload profile.
func (l *Lab) Profile() *workload.Profile { return l.app.Profile }

// DB exposes the (first) database for assertions.
func (l *Lab) DB() *sqldb.DB { return l.dbs[0] }

// ReplicaDB exposes replica i's database for assertions.
func (l *Lab) ReplicaDB(i int) *sqldb.DB { return l.dbs[i] }

// ReplicaAddrs returns the database tier's wire addresses.
func (l *Lab) ReplicaAddrs() []string { return l.dbAddrs }

// StopReplica kills one database backend — the failover experiment's
// fault injector. The cluster client ejects it on the next statement it
// routes there. The server handle is kept so its final counters stay
// readable (and telemetry deltas never go negative).
func (l *Lab) StopReplica(i int) {
	if i < 0 || i >= len(l.dbSrvs) {
		return
	}
	l.dbSrvs[i].Close() // idempotent
}

// RestartReplica brings a stopped database backend's server back up on its
// original address (its data survives in-process). The cluster client still
// considers it ejected until Rejoin replays the writes it missed.
func (l *Lab) RestartReplica(i int) error {
	if i < 0 || i >= len(l.dbSrvs) {
		return fmt.Errorf("core: no replica %d", i)
	}
	srv := wire.NewServer(l.dbs[i], nil)
	if _, err := srv.Listen(l.dbAddrs[i]); err != nil {
		return err
	}
	telemetry.Add(&l.dbRetired[i], l.dbSrvs[i].Telemetry())
	l.dbSrvs[i] = srv
	return nil
}

// walOpts builds backend i's WAL options from the config.
func (l *Lab) walOpts(i int, dir string) sqldb.WALOptions {
	return sqldb.WALOptions{Dir: dir, Fault: l.cfg.DBWALFaults[i]}
}

// CrashReplica power-cuts a durable database backend: its WAL drops
// everything unsynced (acknowledged commits survive, in-flight ones fail),
// and its server goes down. The in-memory engine object is dead after
// this — RestartReplicaFromDisk builds its successor from the data
// directory. Requires DBDataDir.
func (l *Lab) CrashReplica(i int) error {
	if i < 0 || i >= len(l.dbs) {
		return fmt.Errorf("core: no replica %d", i)
	}
	w := l.dbs[i].WAL()
	if w == nil {
		return fmt.Errorf("core: replica %d has no wal (set DBDataDir)", i)
	}
	w.Crash()
	l.StopReplica(i)
	return nil
}

// RestartReplicaFromDisk replaces a crashed backend with a fresh engine
// recovered from its data directory (checkpoint load + log replay, torn
// tail truncated) and re-listens on the original address. The cluster
// client still considers the replica ejected until Rejoin catches it up on
// whatever committed after the crash.
func (l *Lab) RestartReplicaFromDisk(i int) (*sqldb.RecoveryInfo, error) {
	if i < 0 || i >= len(l.dbs) {
		return nil, fmt.Errorf("core: no replica %d", i)
	}
	if l.walDirs[i] == "" {
		return nil, fmt.Errorf("core: replica %d has no data directory (set DBDataDir)", i)
	}
	db, info, err := stack.OpenDB(l.walOpts(i, l.walDirs[i]), nil)
	if err != nil {
		return nil, fmt.Errorf("core: recover replica %d: %w", i, err)
	}
	srv := wire.NewServer(db, nil)
	if _, err := srv.Listen(l.dbAddrs[i]); err != nil {
		db.CloseWAL()
		return nil, err
	}
	l.dbs[i].CloseWAL() // the predecessor's segment file, if still open
	telemetry.Add(&l.dbRetired[i], l.dbSrvs[i].Telemetry())
	telemetry.Add(&l.dbRetired[i], l.dbs[i].Telemetry())
	l.dbs[i] = db
	l.dbSrvs[i] = srv
	return info, nil
}

// Cluster returns the app tier's replication-aware database client (nil
// for configurations without one). With a replicated application tier it
// is backend 0's client — every backend speaks to the same database
// replicas, so any backend's client observes the same logical database.
func (l *Lab) Cluster() *cluster.Client {
	if clients := l.clusterClients(); len(clients) > 0 {
		return clients[0]
	}
	return nil
}

// AppBackends returns the number of application-tier backends.
func (l *Lab) AppBackends() int { return len(l.containers) }

// StopAppBackend kills application backend i — the app-tier failover
// experiment's fault injector. Its AJP listener, servlets and database
// client all go down; the load balancer ejects it on the next request it
// routes there, and pinned sessions fail over to a surviving backend via
// the shared session store. In the EJB architecture the backend's RMI
// client and EJB container die with it.
func (l *Lab) StopAppBackend(i int) {
	if i < 0 || i >= len(l.containers) {
		return
	}
	l.containers[i].Close() // idempotent
	if i < len(l.rmiClients) {
		l.rmiClients[i].Close()
	}
	if i < len(l.ejbCs) {
		l.ejbCs[i].Close()
	}
}

// DBProxy returns the chaos proxy fronting database replica i (nil
// without Config.Chaos) for direct fault scripting.
func (l *Lab) DBProxy(i int) *chaos.Proxy {
	if i < 0 || i >= len(l.dbProxies) {
		return nil
	}
	return l.dbProxies[i]
}

// AppProxy returns the chaos proxy fronting app backend i's AJP link
// (nil without Config.Chaos).
func (l *Lab) AppProxy(i int) *chaos.Proxy {
	if i < 0 || i >= len(l.appProxies) {
		return nil
	}
	return l.appProxies[i]
}

// RejoinAll rejoins every ejected database replica on every cluster
// client in the application tier, resyncing data, and returns the first
// error. Rejoin on a healthy replica is a no-op, so calling it broadly
// is safe.
func (l *Lab) RejoinAll() error {
	var firstErr error
	for _, cl := range l.clusterClients() {
		for id := 0; id < cl.Replicas(); id++ {
			if err := cl.Rejoin(id, true); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Telemetry snapshots every tier's request/query counters and transport
// pool saturation — the observable behind the paper's which-tier-saturates
// analysis. Counters accumulate from boot; diff two snapshots with
// telemetry.Snapshot.Delta to window them. Each tier's row is its owners'
// own rows folded with telemetry.Add — N backends or replicas into one
// tier figure (the paper's per-machine column) — with the per-backend
// breakdown in Snapshot.AppBackends / Snapshot.Replicas.
func (l *Lab) Telemetry() *telemetry.Snapshot {
	s := &telemetry.Snapshot{
		Arch:      l.cfg.Arch.String(),
		Benchmark: l.cfg.Benchmark.String(),
	}
	// Web tier: the front's row (page cache, AJP connector pools) first, so
	// its pool and downstream stand, then the HTTP server's counters.
	s.Tiers = appendFold(s.Tiers, []telemetry.Tier{l.front.Telemetry(), l.web.Telemetry()})

	// Servlet tier: the containers (standalone, PHP's in-process one, or
	// the EJB presentation layer's). The presentation containers have no
	// database; their downstream is the RMI clients core holds beside them.
	apps := rows(l.containers)
	s.Tiers = appendFold(s.Tiers, apps)
	if len(l.rmiClients) > 0 {
		ps := l.rmiClients[0].Stats()
		for _, rc := range l.rmiClients[1:] {
			telemetry.Add(&ps, rc.Stats())
		}
		t := s.Tier("servlet")
		t.Pool, t.Downstream = &ps, "ejb"
	}

	s.Tiers = appendFold(s.Tiers, rows(l.ejbCs))

	// Database tier: each backend's server and engine rows, plus what the
	// ones a restart replaced counted, as the paper's single "database
	// machine" column.
	dbs := rows(l.dbSrvs)
	for i := range dbs {
		telemetry.Add(&dbs[i], l.dbs[i].Telemetry())
		telemetry.Add(&dbs[i], l.dbRetired[i])
	}
	s.Tiers = appendFold(s.Tiers, dbs)

	// Per-replica breakdown: the cluster clients' routing views (every app
	// backend routes independently, so their counters sum), joined with
	// each replica's own backend row: its statements and its DBStats.
	if cl := l.Cluster(); cl != nil && cl.Replicas() > 1 {
		s.Replicas = aggregateReplicaStats(l.clusterClients())
		for i := range s.Replicas {
			if r := &s.Replicas[i]; r.ID < len(dbs) {
				r.DBStats, r.Queries = dbs[r.ID].DBStats, dbs[r.ID].Queries
			}
		}
	}

	// Per-app-backend breakdown: the balancer's routing view, joined with
	// each backend container's own request counter.
	if l.front.Balancer != nil {
		s.AppBackends = l.front.Balancer.Stats()
		for i := range s.AppBackends {
			if i < len(apps) {
				s.AppBackends[i].Requests = apps[i].Requests
			}
		}
	}
	return s
}

// rows collects each owner's own tier row.
func rows[O interface{ Telemetry() telemetry.Tier }](owners []O) []telemetry.Tier {
	out := make([]telemetry.Tier, len(owners))
	for i, o := range owners {
		out[i] = o.Telemetry()
	}
	return out
}

// appendFold appends the tier whose owners reported rows, combined with
// telemetry.Add: counters sum, and the first row's names, gauges and pool
// name stand. A tier with no owners is absent.
func appendFold(tiers, owned []telemetry.Tier) []telemetry.Tier {
	if len(owned) == 0 {
		return tiers
	}
	t := owned[0]
	for _, r := range owned[1:] {
		telemetry.Add(&t, r)
	}
	return append(tiers, t)
}

// clusterClients returns every replication-aware database client in the
// application tier: one per servlet backend (PHP's in-process container
// included), plus each EJB container's.
func (l *Lab) clusterClients() []*cluster.Client {
	var out []*cluster.Client
	for _, c := range l.containers {
		if db := c.Context().DB; db != nil {
			out = append(out, db)
		}
	}
	for _, ec := range l.ejbCs {
		out = append(out, ec.DB())
	}
	return out
}

// aggregateReplicaStats merges the per-replica routing views of N
// independent cluster clients into one: counters sum, a replica reports
// healthy only when every client still routes to it, pools sum.
func aggregateReplicaStats(clients []*cluster.Client) []telemetry.Replica {
	var out []telemetry.Replica
	for _, cl := range clients {
		for i, r := range cl.ReplicaStats() {
			if i >= len(out) {
				out = append(out, r)
				continue
			}
			telemetry.Add(&out[i], r)
		}
	}
	return out
}

// Run drives the lab with the client emulator and attaches the per-tier
// saturation delta over the measurement window (ramp phases excluded,
// matching the report's other figures) to the report.
func (l *Lab) Run(wcfg workload.Config) (*workload.Report, error) {
	var before, after *telemetry.Snapshot
	prevStart, prevEnd := wcfg.OnMeasureStart, wcfg.OnMeasureEnd
	wcfg.OnMeasureStart = func() {
		before = l.Telemetry()
		if prevStart != nil {
			prevStart()
		}
	}
	wcfg.OnMeasureEnd = func() {
		after = l.Telemetry()
		if prevEnd != nil {
			prevEnd()
		}
	}
	rep, err := workload.Run(l.webAddr, l.app.Profile, wcfg)
	if err != nil {
		return rep, err
	}
	if before != nil && after != nil {
		rep.Tiers = after.Delta(before)
	}
	return rep, nil
}

// Close tears the tiers down in dependency order.
func (l *Lab) Close() {
	if l.web != nil {
		l.web.Close()
	}
	if l.front != nil {
		l.front.Close()
	}
	for _, c := range l.containers {
		c.Close()
	}
	for _, rc := range l.rmiClients {
		rc.Close()
	}
	for _, ec := range l.ejbCs {
		ec.Close()
	}
	for _, px := range l.appProxies {
		px.Close()
	}
	for _, px := range l.dbProxies {
		px.Close()
	}
	for _, srv := range l.dbSrvs {
		srv.Close()
	}
	for _, db := range l.dbs {
		db.CloseWAL() // flush and seal the log; no-op without one
	}
}
