// Command webserver runs the web tier standalone: static images plus a
// dynamic-content dispatcher to one or more servletd instances over AJP —
// the role Apache (with mod_jk's worker balancing) plays in the paper's
// testbed.
//
// Usage:
//
//	webserver -addr :8080 -ajp 127.0.0.1:7009 -base /tpcw/ [-imagebytes 2048]
//
// A comma-separated -ajp list load-balances the application tier
// (least-in-flight, with session affinity on the JSESSIONID route
// suffix). Each entry is "addr" — backend i gets route id "a<i>", which
// the matching servletd must be started with (-route a<i>) — or
// "route=addr" to name routes explicitly:
//
//	webserver -ajp 127.0.0.1:7009,127.0.0.1:7010            # routes a0, a1
//	webserver -ajp tc1=127.0.0.1:7009,tc2=127.0.0.1:7010   # explicit routes
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/httpd"
	"repro/internal/lb"
	"repro/internal/pool"
	"repro/internal/stack"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		ajpAddr    = flag.String("ajp", "127.0.0.1:7009", "servlet container AJP backend(s): addr[,addr...] or route=addr[,route=addr...]; more than one enables the app-tier load balancer")
		base       = flag.String("base", "/tpcw/", "dynamic content URL prefix (/tpcw/ for bookstore, /rubis/ for auction)")
		imageBytes = flag.Int("imagebytes", stack.DefaultImageBytes, "size of each synthetic image, bytes")
		conns      = flag.Int("conns", 16, "AJP connector pool size, per backend")
		ajpDial    = flag.Duration("ajp-dial", 0, "backend dial timeout (0: default, negative: none)")
		ajpOp      = flag.Duration("ajp-op", 0, "per-request backend deadline (0: default, negative: none)")
		ajpWait    = flag.Duration("ajp-wait", 0, "max wait for a free pooled backend connection (0: default, negative: unbounded)")
		pageCache  = flag.Int("page-cache", 0, "full-page cache entries for anonymous GETs (0: disabled)")
		pageTTL    = flag.Duration("page-cache-ttl", 0, "page cache entry lifetime (0: default)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "", log.LstdFlags)

	backends, err := stack.Connect(*ajpAddr, *conns, pool.Timeouts{Dial: *ajpDial, Op: *ajpOp, Wait: *ajpWait})
	if err != nil {
		logger.Fatalf("webserver: -ajp: %v", err)
	}
	// Cross-process deployment: page-cache freshness rides on the
	// X-Content-Epoch response header the app tier stamps, plus the TTL
	// backstop.
	front := stack.NewFront(*base, backends, lb.PageCacheConfig{MaxEntries: *pageCache, TTL: *pageTTL}, *imageBytes)
	desc := "AJP " + *ajpAddr
	if front.Balancer != nil {
		desc = fmt.Sprintf("lb over %d AJP backends (%s)", len(backends), *ajpAddr)
	}
	if front.PageCache != nil {
		desc += fmt.Sprintf(" (page cache: %d entries)", *pageCache)
	}

	srv := httpd.NewServer(front.Mux, logger)
	bound, err := srv.Listen(*addr)
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Printf("webserver: http://%s%s -> %s\n", bound, *base, desc)
	select {}
}
