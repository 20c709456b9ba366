// Package arch names the experiment's two axes — the paper's six
// configurations and two applications — as a leaf, so the real stack
// (internal/core) can name them without importing the simulator
// (internal/perfsim, which re-exports every name).
package arch

import "fmt"

// Arch identifies one of the six hardware/software configurations of
// Figure 4 in the paper.
type Arch int

const (
	// PHP is WsPhp-DB: the script module runs inside the web server
	// process; the database is on a separate machine.
	PHP Arch = iota
	// Servlet is WsServlet-DB: the servlet engine runs on the web
	// server machine in a separate process (AJP IPC), DB separate.
	Servlet
	// ServletSync is WsServlet-DB(sync): as Servlet, but table
	// locking is performed inside the servlet engine instead of with
	// LOCK TABLES statements in the database.
	ServletSync
	// ServletDedicated is Ws-Servlet-DB: web server, servlet engine and
	// database each on their own machine.
	ServletDedicated
	// ServletDedicatedSync is Ws-Servlet-DB(sync).
	ServletDedicatedSync
	// EJB is Ws-Servlet-EJB-DB: four machines; servlets hold only
	// presentation logic and call stateless session-façade beans over RMI;
	// entity beans use container-managed persistence.
	EJB
)

// Archs lists all six configurations in the paper's presentation order.
func Archs() []Arch {
	return []Arch{PHP, Servlet, ServletSync, ServletDedicated, ServletDedicatedSync, EJB}
}

// String returns the paper's name for the configuration.
func (a Arch) String() string {
	switch a {
	case PHP:
		return "WsPhp-DB"
	case Servlet:
		return "WsServlet-DB"
	case ServletSync:
		return "WsServlet-DB(sync)"
	case ServletDedicated:
		return "Ws-Servlet-DB"
	case ServletDedicatedSync:
		return "Ws-Servlet-DB(sync)"
	case EJB:
		return "Ws-Servlet-EJB-DB"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// EngineSync reports whether the configuration performs table locking in the
// application engine (the paper's "(sync)" variants).
func (a Arch) EngineSync() bool {
	return a == ServletSync || a == ServletDedicatedSync
}

// DedicatedEngine reports whether the dynamic-content generator runs on its
// own machine rather than on the web server.
func (a Arch) DedicatedEngine() bool {
	return a == ServletDedicated || a == ServletDedicatedSync || a == EJB
}

// Benchmark selects one of the two applications.
type Benchmark int

const (
	// Bookstore is the TPC-W online bookstore (stresses the database).
	Bookstore Benchmark = iota
	// Auction is the RUBiS-style auction site (stresses the front end).
	Auction
)

func (b Benchmark) String() string {
	switch b {
	case Bookstore:
		return "bookstore"
	case Auction:
		return "auction"
	default:
		return fmt.Sprintf("Benchmark(%d)", int(b))
	}
}
