// Command ejbd runs the EJB application-server tier standalone: entity
// beans and the benchmark's session façade served over RMI — the role JOnAS
// plays on the paper's EJB machine. Pair it with a presentation-tier
// servletd... in this stack the presentation servlets live in-process with
// cmd/webserver's connector, so a typical wiring is:
//
//	dbserver -> ejbd -> (presentation container inside this process) -> webserver
//
// Usage:
//
//	ejbd -addr :7099 -db 127.0.0.1:7306 -benchmark auction [-ajp :7009]
//
// When -ajp is given, ejbd also hosts the presentation servlets and serves
// them over AJP so a webserver can connect directly. In a load-balanced
// application tier, -route names this backend for session affinity
// (matching the webserver's -ajp entry), like servletd's -route.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/servlet"
	"repro/internal/stack"
)

func main() {
	var db cluster.Config
	db.BindFlags(flag.CommandLine)
	var (
		addr      = flag.String("addr", "127.0.0.1:7099", "RMI listen address")
		ajpAddr   = flag.String("ajp", "", "also serve presentation servlets on this AJP address")
		benchmark = flag.String("benchmark", "bookstore", "bookstore or auction")
		route     = flag.String("route", "", "session-affinity route id for the presentation servlets in a load-balanced tier (requires -ajp)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)

	if err := checkRoute(*route, *ajpAddr); err != nil {
		logger.Fatal(err)
	}
	app, err := stack.AppByName(*benchmark, "default")
	if err != nil {
		logger.Fatal(err)
	}
	// A sharded -db DSN (semicolon-separated groups) partitions by the
	// benchmark's own table->column map; tables outside it are global.
	_, bound, err := app.EJBServer(db, *addr)
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Printf("ejbd: %s façade on RMI %s (db %s)\n", *benchmark, bound, db.DSN)

	if *ajpAddr != "" {
		_, pc := app.PresentationBackend(bound.String(), db.PoolSize, db.Timeouts, servlet.Config{Route: *route})
		pbound, err := pc.Start(*ajpAddr)
		if err != nil {
			logger.Fatal(err)
		}
		fmt.Printf("ejbd: presentation servlets on AJP %s\n", pbound)
	}
	select {}
}

// checkRoute rejects a -route that nothing would carry: the route names the
// presentation servlets' sessions, and those exist only with -ajp.
func checkRoute(route, ajpAddr string) error {
	if route != "" && ajpAddr == "" {
		return fmt.Errorf("ejbd: -route %q requires -ajp", route)
	}
	return nil
}
