// Package stack is the one assembly of the paper's software tiers: the
// application descriptor (App — everything that differs between the
// bookstore and the auction site, closed over the application's scale) and
// one constructor per tier — OpenDB, App.Seed / App.SeedCluster (database),
// App.ServletBackend (servlet container, or the in-process module's),
// App.EJBServer + App.PresentationBackend (the EJB backend pair), Connect +
// NewFront (web tier). The in-process laboratory (internal/core) and the
// daemons under cmd/ both build their tiers by calling these, so the
// deployed stack is the measured stack: a tier is built in one place.
// Addresses and flags stay with the daemons; topology, chaos proxies and
// telemetry handles with core.
package stack

import (
	"fmt"
	"net"
	"strings"

	"repro/internal/ajp"
	"repro/internal/auction"
	"repro/internal/bookstore"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/ejb"
	"repro/internal/httpd"
	"repro/internal/lb"
	"repro/internal/pool"
	"repro/internal/rmi"
	"repro/internal/servlet"
	"repro/internal/sqldb"
	"repro/internal/workload"
)

// App describes one benchmark application to the tiers that host it.
type App struct {
	Name     string // also Profile.Name
	BasePath string // URL prefix of the dynamic pages
	// ShardBy is the table -> column partitioning map of a sharded
	// database tier; an unsharded cluster client ignores it.
	ShardBy map[string]string
	// Profile is the client emulator's view: interactions and mixes.
	Profile      *workload.Profile
	CreateSchema func(db sqldb.Execer) error
	Populate     func(db sqldb.Execer, seed int64) error
	// Servlets registers the SQL-issuing servlet set (the PHP and servlet
	// architectures); sync selects engine-side locking.
	Servlets func(c *servlet.Container, sync bool)
	// Beans registers the entity beans and the session façade.
	Beans func(c *ejb.Container) error
	// Presentation registers the EJB architecture's presentation servlets,
	// which call the façade through rc.
	Presentation func(c *servlet.Container, rc *rmi.Client)
}

// Bookstore describes the TPC-W bookstore at scale sc.
func Bookstore(sc bookstore.Scale) *App {
	return &App{
		Name: "bookstore", BasePath: bookstore.BasePath, ShardBy: bookstore.ShardBy(),
		Profile: bookstore.Profile(sc), CreateSchema: bookstore.CreateSchema,
		Populate: func(db sqldb.Execer, seed int64) error { return bookstore.Populate(db, sc, seed) },
		Servlets: func(c *servlet.Container, sync bool) {
			bookstore.New(sc, bookstore.Config{Sync: sync}).Register(c)
		},
		Beans: func(c *ejb.Container) error {
			if err := bookstore.RegisterEntities(c); err != nil {
				return err
			}
			return c.RegisterFacade(bookstore.FacadeName, &bookstore.Facade{C: c})
		},
		Presentation: func(c *servlet.Container, rc *rmi.Client) {
			bookstore.NewPresentationApp(rc, sc).Register(c)
		},
	}
}

// Auction describes the RUBiS-style auction site at scale sc.
func Auction(sc auction.Scale) *App {
	return &App{
		Name: "auction", BasePath: auction.BasePath, ShardBy: auction.ShardBy(),
		Profile: auction.Profile(sc), CreateSchema: auction.CreateSchema,
		Populate: func(db sqldb.Execer, seed int64) error { return auction.Populate(db, sc, seed) },
		Servlets: func(c *servlet.Container, sync bool) {
			auction.New(sc, auction.Config{Sync: sync}).Register(c)
		},
		Beans: func(c *ejb.Container) error {
			if err := auction.RegisterEntities(c); err != nil {
				return err
			}
			return c.RegisterFacade(auction.FacadeName, &auction.Facade{C: c})
		},
		Presentation: func(c *servlet.Container, rc *rmi.Client) {
			auction.NewPresentationApp(rc, sc).Register(c)
		},
	}
}

// AppByName resolves the daemons' -benchmark and -scale values; it is the
// only place an application is selected by name.
func AppByName(benchmark, scale string) (*App, error) {
	i, ok := map[string]int{"tiny": 0, "default": 1, "paper": 2}[scale]
	if !ok {
		return nil, fmt.Errorf("stack: unknown scale %q (want tiny, default or paper)", scale)
	}
	switch benchmark {
	case "bookstore":
		return Bookstore([]bookstore.Scale{bookstore.TinyScale(), bookstore.DefaultScale(), bookstore.PaperScale()}[i]), nil
	case "auction":
		return Auction([]auction.Scale{auction.TinyScale(), auction.DefaultScale(), auction.PaperScale()}[i]), nil
	}
	return nil, fmt.Errorf("stack: unknown benchmark %q (want bookstore or auction)", benchmark)
}

// Seed creates the schema and populates it through db: a local session, or
// a cluster client that routes each row to its owning shard.
func (a *App) Seed(db sqldb.Execer, seed int64) error {
	if err := a.CreateSchema(db); err != nil {
		return err
	}
	return a.Populate(db, seed)
}

// SeedCluster seeds a running database tier over the wire through a
// cluster client on cfg, partitioned by the application's ShardBy map.
func (a *App) SeedCluster(cfg cluster.Config, seed int64) error {
	cfg.ShardBy = a.ShardBy
	cl := cluster.NewWithConfig(cfg)
	defer cl.Close()
	return a.Seed(cl, seed)
}

// OpenDB opens one database backend. A data directory (wal.Dir) holding
// durable state is the source of truth: the engine recovers from it and
// fill does not run. Otherwise fill (nil: a bare shard backend, seeded
// later through the cluster) loads the initial data in memory first and the
// log attaches after, so that data lands in the initial checkpoint instead
// of being logged — and replayed on every restart — statement by statement.
// info.Recovered says which happened (info is zero without a directory).
func OpenDB(wal sqldb.WALOptions, fill func(sqldb.Execer) error) (*sqldb.DB, *sqldb.RecoveryInfo, error) {
	db := sqldb.New()
	if fill != nil && !(wal.Dir != "" && sqldb.WALDirHasState(wal.Dir)) {
		sess := db.NewSession()
		err := fill(sess)
		sess.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	if wal.Dir == "" {
		return db, &sqldb.RecoveryInfo{}, nil
	}
	info, err := db.AttachWAL(wal)
	if err != nil {
		return nil, nil, fmt.Errorf("stack: wal at %s: %w", wal.Dir, err)
	}
	return db, info, nil
}

// ServletBackend builds a container holding the application's SQL-issuing
// servlets over the database client cfg.DB. Start serves it over AJP;
// scriptmod.Mount runs it inside the web server.
func (a *App) ServletBackend(cfg servlet.Config, sync bool) *servlet.Container {
	cfg.DB.ShardBy = a.ShardBy
	c := servlet.NewContainer(cfg)
	a.Servlets(c, sync)
	return c
}

// EJBServer builds the EJB container — entity beans and session façade
// over the database client db — and serves it over RMI on addr.
func (a *App) EJBServer(db cluster.Config, addr string) (*ejb.Container, net.Addr, error) {
	db.ShardBy = a.ShardBy
	ec, err := ejb.NewContainer(ejb.Config{DB: db})
	if err != nil {
		return nil, nil, err
	}
	if err := a.Beans(ec); err != nil {
		ec.Close()
		return nil, nil, err
	}
	bound, err := ec.Serve(addr)
	if err != nil {
		ec.Close()
		return nil, nil, err
	}
	return ec, bound, nil
}

// PresentationBackend builds the other half of an EJB backend pair: an RMI
// client (size pooled connections) to the EJB server at rmiAddr and the
// container of presentation servlets calling through it. Start serves the
// container over AJP.
func (a *App) PresentationBackend(rmiAddr string, size int, t pool.Timeouts, cfg servlet.Config) (*rmi.Client, *servlet.Container) {
	rc := rmi.NewClientT(rmiAddr, size, t)
	c := servlet.NewContainer(cfg)
	a.Presentation(c, rc)
	return rc, c
}

// Connect opens one AJP connector (size pooled connections) per entry of
// an -ajp style list and returns them as balancer backends. Each entry is
// "addr" — the i-th accepted backend gets route id "a<i>", which its
// container must be configured with — or "route=addr".
func Connect(spec string, size int, t pool.Timeouts) ([]lb.Backend, error) {
	var backends []lb.Backend
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		route, addr, named := strings.Cut(entry, "=")
		if !named {
			// Count accepted backends, not list positions: a stray comma
			// must not shift the "backend i gets route a<i>" contract.
			route, addr = fmt.Sprintf("a%d", len(backends)), entry
		}
		for _, be := range backends {
			if be.ID == route {
				return nil, fmt.Errorf("stack: route %q assigned twice (%q); routes must be unique or affinity pins two backends' sessions to one", route, entry)
			}
		}
		conn := ajp.NewConnectorT(addr, size, t)
		backends = append(backends, lb.Backend{ID: route, Handler: conn, PoolStats: conn.Stats})
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("stack: %q names no backends", spec)
	}
	return backends, nil
}

// Front is the web tier's routing: what the HTTP server serves.
type Front struct {
	Mux       *httpd.Mux
	Backends  []lb.Backend
	Balancer  *lb.Balancer  // nil with one backend: dispatched to directly
	PageCache *lb.PageCache // nil when disabled
}

// DefaultImageBytes sizes each synthetic item image (webserver -imagebytes).
const DefaultImageBytes = 2048

// NewFront mounts the dynamic-content generator under basePath — one
// backend directly, several behind the load balancer, either behind the
// page cache when pc.MaxEntries > 0 — and the synthetic image set (64
// shared item images plus the site chrome) under /img/.
func NewFront(basePath string, backends []lb.Backend, pc lb.PageCacheConfig, imageBytes int) *Front {
	f := &Front{Mux: httpd.NewMux(), Backends: backends}
	app := backends[0].Handler
	if len(backends) > 1 {
		f.Balancer = lb.New(lb.Config{Backends: backends})
		app = f.Balancer
	}
	if pc.MaxEntries > 0 {
		f.PageCache = lb.NewPageCache(app, pc)
		app = f.PageCache
	}
	f.Mux.Handle(basePath, app)
	static := httpd.NewStaticSet()
	for i := 0; i < 64; i++ {
		static.Add(fmt.Sprintf("/img/item_%d.gif", i), datagen.Image(i, imageBytes), "image/gif")
	}
	static.Add("/img/logo.gif", datagen.Image(1000, imageBytes/2), "image/gif")
	static.Add("/img/banner.gif", datagen.Image(1001, imageBytes), "image/gif")
	f.Mux.Handle("/img/", static)
	return f
}

// Close closes the backends' AJP connectors.
func (f *Front) Close() {
	for _, be := range f.Backends {
		if c, ok := be.Handler.(*ajp.Connector); ok {
			c.Close()
		}
	}
}
