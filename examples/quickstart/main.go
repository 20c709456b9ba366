// Quickstart: assemble one of the paper's middleware configurations as a
// real multi-tier system (web server, servlet containers over AJP, SQL
// database over TCP — all in this process), here with the database tier
// replicated twice behind the read-one-write-all cluster client AND the
// application tier replicated twice behind the session-affine load
// balancer, issue a few interactions against it, and print what happened.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/httpd/httpclient"
)

func main() {
	// WsServlet-DB(sync): servlet containers with engine-side locking,
	// 2 app backends behind the load balancer (DESIGN.md §4), over a
	// 2-replica database tier (reads load-balance, writes broadcast;
	// DESIGN.md §7).
	lab, err := core.Start(core.Config{
		Arch:        arch.ServletSync,
		Benchmark:   arch.Auction,
		Seed:        1,
		DBReplicas:  2,
		AppReplicas: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer lab.Close()
	fmt.Printf("auction site up as %s at http://%s/rubis/home (app backends: %d, db replicas: %v)\n",
		arch.ServletSync, lab.WebAddr(), lab.AppBackends(), lab.ReplicaAddrs())

	c := httpclient.New(lab.WebAddr(), 10*time.Second)
	defer c.Close()
	for _, path := range []string{
		"/rubis/home",
		"/rubis/searchitemsincategory?category=2",
		"/rubis/viewitem?item=3",
		"/rubis/storebid?item=3&user=7&bid=250",
		"/rubis/viewitem?item=3",
	} {
		resp, err := c.Get(path)
		if err != nil {
			log.Fatalf("GET %s: %v", path, err)
		}
		fmt.Printf("GET %-45s -> %d (%d bytes)\n", path, resp.Status, len(resp.Body))
	}
	fmt.Println("the second viewitem reflects the stored bid — state flows through all tiers")

	// The same numbers are served as JSON at GET /status.
	fmt.Println("\nper-tier telemetry:")
	fmt.Print(lab.Telemetry().Format())
}
