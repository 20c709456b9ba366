// Auction example: drive the bidding mix against the EJB configuration and
// show the architectural signature the paper measures in §6.1 — the flood
// of short container-generated statements between the EJB server and the
// database.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	lab, err := core.Start(core.Config{
		Arch:      arch.EJB,
		Benchmark: arch.Auction,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer lab.Close()

	rep, err := lab.Run(workload.Config{
		Clients:     6,
		Mix:         "bidding",
		ThinkMean:   5 * time.Millisecond,
		SessionMean: 2 * time.Second,
		RampUp:      300 * time.Millisecond,
		Measure:     2 * time.Second,
		RampDown:    200 * time.Millisecond,
		Seed:        42,
	})
	if err != nil {
		log.Fatal(err)
	}
	queries := lab.Telemetry().Tier("ejb").Queries
	fmt.Printf("Ws-Servlet-EJB-DB bidding mix: %6.0f ipm, mean %5.1fms, errors %d\n",
		rep.ThroughputIPM, rep.Latency.Mean().Seconds()*1000, rep.Errors)
	fmt.Printf("EJB container issued %d statements for %d interactions: %.1f per interaction\n",
		queries, rep.Interactions, float64(queries)/float64(rep.Interactions+1))
	fmt.Println("(§6.1: \"a very large number of small packets ... accesses to fields in")
	fmt.Println(" the beans that require a single value to be read or updated\")")
}
