package perfsim

// Costs is the calibrated service-demand table. All CPU demands are seconds
// on the paper's reference machine (1.33 GHz AMD Athlon, CPU speed 1.0 in
// the cluster model); byte costs are seconds per byte.
//
// Calibration sources, by field, from the paper:
//
//   - Auction bidding peaks (Fig. 11): WsPhp-DB 9,780 ipm at 1,100 clients;
//     WsServlet-DB 7,380 ipm at 700 clients; Ws-Servlet-DB 10,440 ipm at
//     1,200 clients; Ws-Servlet-EJB-DB 4,136 ipm. These pin the per-
//     interaction front-end demands: PHP ≈ 6.1 ms, servlet co-located
//     ≈ 8.1 ms, servlet alone ≈ 5.7 ms, EJB server ≈ 14.4 ms.
//   - §6.1: PHP beats co-located servlets by ~33% on bidding (IPC overhead
//     plus interpreted type-4 JDBC driver vs. PHP's native driver); the
//     AJP and driver costs below produce that gap.
//   - §6.1: EJB server CPU 99% at peak with servlet engine at 32%, DB at
//     17%, web at 6%; ~2,000 packets/s between EJB and DB at ~69
//     interactions/s ≈ 29 small CMP queries per interaction.
//   - §6.2/Fig. 13: auction browsing, dedicated-servlet configuration is
//     web-server bound at ~12,000 ipm with 94 Mb/s on the web NIC
//     (~50 KB/interaction including images); PHP ≈ 25% over co-located
//     servlets.
//   - Bookstore (Figs. 5–10): DB-bound. Shopping-mix peaks 520 ipm without
//     engine locking (DB CPU ~70%, lock contention) vs. 663–665 ipm with
//     (DB CPU 100%) pin the mean DB demand near 85–90 ms/interaction and
//     the contention level. Ordering mix: shorter updates, DB ~60% without
//     sync. Browsing mix: DB CPU-bound at 100% for every non-EJB
//     configuration.
type Costs struct {
	// --- web server ---

	// WebFixedCPU is web-server CPU per interaction: accept/parse the HTTP
	// request, dispatch, and serve embedded static images.
	WebFixedCPU float64
	// WebCPUPerByte is web-server CPU per byte sent to the client (kernel
	// copies, interrupts, checksums). At the auction browsing peak this is
	// what saturates the web machine (Fig. 14).
	WebCPUPerByte float64

	// --- AJP (web server <-> servlet engine IPC) ---

	// AJPFixedCPU is the per-request protocol cost on each side.
	AJPFixedCPU float64
	// AJPPerByte is the per-byte cost of moving the dynamic response
	// between engine and web server, paid on each side. §6.1 measures this
	// IPC as the main reason co-located servlets trail PHP.
	AJPPerByte float64

	// --- generators ---

	// PHPGenFactor scales a class's generator demand for the PHP
	// interpreter relative to the servlet engine (<1: §6.3 attributes
	// PHP's edge chiefly to avoided IPC, with a smaller interpreter gap).
	PHPGenFactor float64
	// PHPDriverPerQuery is PHP's native MySQL driver CPU per query.
	PHPDriverPerQuery float64
	// JDBCDriverPerQuery is the interpreted type-4 JDBC driver CPU per
	// query (§6.1 calls out the driver gap explicitly).
	JDBCDriverPerQuery float64

	// --- RMI (servlet <-> EJB) ---

	// RMIFixedCPU is the per-call marshalling cost paid on each side.
	RMIFixedCPU float64
	// RMIBytes is the wire size of one session-façade call+reply.
	RMIBytes float64

	// --- EJB container ---

	// EJBPresentFactor is the share of a class's generator demand that
	// remains in the servlet as presentation logic under EJB.
	EJBPresentFactor float64
	// EJBLogicFactor multiplies the business-logic share of the generator
	// demand to model container services (JTA, pooling, reflection).
	EJBLogicFactor float64
	// CMPFanout is how many short automatically-generated queries replace
	// one hand-written query step (entity-bean field loads/stores).
	CMPFanout int
	// CMPQueryCPUEJB is container CPU per short CMP query.
	CMPQueryCPUEJB float64
	// CMPQueryBytes is the wire size of one CMP query+reply ("a very large
	// number of small packets", §6.1: ~2,000 pkt/s at 0.5 Mb/s ≈ 250 B).
	CMPQueryBytes float64

	// --- database ---

	// DBStmtFixedCPU is per-statement parse/dispatch CPU on the DB.
	DBStmtFixedCPU float64
	// LockStmtCPU is DB CPU for each LOCK TABLES / UNLOCK TABLES statement.
	LockStmtCPU float64
	// DBPoolSize is the engine-side database connection pool size; it
	// bounds how many statements execute in the database concurrently.
	// Lock-taking transactions hold one connection for their whole
	// critical sequence, as the real servlet engine does.
	DBPoolSize int
	// DBConcOverhead inflates a query's CPU demand by this fraction per
	// additional concurrently-executing query, modeling MySQL thread
	// thrash; it produces the gentle post-peak decline of Figure 5.
	DBConcOverhead float64

	// --- wire sizes ---

	// QueryBytes / ResultBytes are the default per-query wire sizes
	// engine<->DB when a class step does not override them.
	QueryBytes  float64
	ResultBytes float64
	// RequestBytes is the client HTTP request size.
	RequestBytes float64
}

// DefaultCosts returns the calibrated cost table used for all figure
// reproductions. See the type comment for how each value is pinned to the
// paper's measurements.
func DefaultCosts() Costs {
	return Costs{
		WebFixedCPU:   0.00075, // 0.75 ms: accept+parse+static dispatch
		WebCPUPerByte: 55e-9,   // 55 ns/B: ~2.6 ms for a 47 KB browsing page

		AJPFixedCPU: 0.00012, // 0.12 ms/side per request
		AJPPerByte:  20e-9,   // 20 ns/B/side of dynamic content

		PHPGenFactor:       0.68,
		PHPDriverPerQuery:  0.00010, // native driver
		JDBCDriverPerQuery: 0.00040, // interpreted type-4 driver

		RMIFixedCPU: 0.0009, // 0.9 ms marshalling per façade call per side
		RMIBytes:    1500,

		EJBPresentFactor: 0.45,
		EJBLogicFactor:   2.2,
		CMPFanout:        7,       // ~29 small queries per auction interaction
		CMPQueryCPUEJB:   0.00030, // container overhead per tiny query
		CMPQueryBytes:    250,

		DBStmtFixedCPU: 0.00012,
		LockStmtCPU:    0.0009,
		DBPoolSize:     12,
		DBConcOverhead: 0.0025,

		QueryBytes:   350,
		ResultBytes:  1600,
		RequestBytes: 360,
	}
}
