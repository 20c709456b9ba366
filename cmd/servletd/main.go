// Command servletd runs the application-container tier standalone: the
// benchmark's servlets served over AJP, the role Tomcat plays in the
// paper's Ws-Servlet-DB configurations.
//
// Usage:
//
//	servletd -addr :7009 -db 127.0.0.1:7306 -benchmark bookstore [-sync] [-pool 12]
//
// In a load-balanced application tier (webserver -ajp lists several
// backends), give each servletd the route id the balancer knows it by
// (-route a0, -route a1, ...): new session ids carry the route as a
// ".route" suffix and the balancer pins those sessions here. Session
// state is container-local across processes — a backend death loses its
// sessions' attributes (carts); affinity and failover still work.
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
		addr      = flag.String("addr", "127.0.0.1:7009", "AJP listen address")
		benchmark = flag.String("benchmark", "bookstore", "bookstore or auction")
		sync      = flag.Bool("sync", false, "engine-side locking (the paper's sync variants)")
		route     = flag.String("route", "", "session-affinity route id in a load-balanced tier (must match the webserver's -ajp entry for this backend)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)

	app, err := stack.AppByName(*benchmark, "default")
	if err != nil {
		logger.Fatal(err)
	}
	// A sharded -db DSN (semicolon-separated groups) partitions by the
	// benchmark's own table->column map; tables outside it are global.
	c := app.ServletBackend(servlet.Config{DB: db, Route: *route}, *sync)
	bound, err := c.Start(*addr)
	if err != nil {
		logger.Fatal(err)
	}
	routeNote := ""
	if *route != "" {
		routeNote = ", route=" + *route
	}
	fmt.Printf("servletd: %s container on AJP %s (db %s, sync=%v%s)\n",
		*benchmark, bound, db.DSN, *sync, routeNote)
	select {}
}
