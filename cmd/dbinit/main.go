// Command dbinit seeds a database tier through a cluster client: it
// creates the benchmark schema and populates the data over the wire, so a
// sharded tier (-db with semicolon-separated shard groups) gets each row
// on its owning shard only, with strided AUTO_INCREMENT counters. Run it
// once against empty backends (dbserver -scale empty) before starting the
// application tier:
//
//	dbserver -addr :7306 -scale empty &
//	dbserver -addr :7307 -scale empty &
//	dbinit -db "127.0.0.1:7306;127.0.0.1:7307" -benchmark auction
//
// Unsharded DSNs work too — then it is just remote schema + population,
// equivalent to the backends' own -seed path.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/pool"
	"repro/internal/stack"
)

func main() {
	var (
		dbAddr    = flag.String("db", "127.0.0.1:7306", "database DSN: shard groups separated by ';', replicas within a group by ','")
		benchmark = flag.String("benchmark", "bookstore", "bookstore or auction")
		scale     = flag.String("scale", "default", "tiny, default or paper")
		seed      = flag.Int64("seed", 1, "population seed")
		poolSize  = flag.Int("pool", 8, "connection pool size, per replica")
		opTO      = flag.Duration("op", time.Minute, "per-statement deadline (0: transport default, negative: none)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "dbinit ", log.LstdFlags)

	app, err := stack.AppByName(*benchmark, *scale)
	if err != nil {
		logger.Fatal(err)
	}
	start := time.Now()
	err = app.SeedCluster(cluster.Config{
		DSN:      *dbAddr,
		PoolSize: *poolSize,
		Timeouts: pool.Timeouts{Op: *opTO},
	}, *seed)
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Printf("dbinit: %s (%s scale) seeded via %s in %v\n",
		*benchmark, *scale, *dbAddr, time.Since(start).Round(time.Millisecond))
}
