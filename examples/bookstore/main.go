// Bookstore example: run a scaled-down TPC-W shopping-mix experiment
// against two real configurations (in-process module vs servlet container
// with engine-side locking) and compare their measured behaviour — the
// miniature, single-host version of the paper's Figure 5 methodology.
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
	for _, a := range []arch.Arch{arch.PHP, arch.ServletSync} {
		lab, err := core.Start(core.Config{
			Arch:      a,
			Benchmark: arch.Bookstore,
			Seed:      1,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := lab.Run(workload.Config{
			Clients:     8,
			Mix:         "shopping",
			ThinkMean:   5 * time.Millisecond,
			SessionMean: 2 * time.Second,
			RampUp:      300 * time.Millisecond,
			Measure:     2 * time.Second,
			RampDown:    200 * time.Millisecond,
			FetchImages: true,
			Seed:        42,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %6.0f ipm  mean %6.1fms  p95 %6.1fms  errors %d  images %d\n",
			a, rep.ThroughputIPM,
			rep.Latency.Mean().Seconds()*1000, rep.Latency.Percentile(95).Seconds()*1000,
			rep.Errors, rep.ImageFetches)
		for _, name := range []string{"home", "productdetail", "buyconfirm"} {
			fmt.Printf("  %-20s %d completions\n", name, rep.ByInteraction[name])
		}
		lab.Close()
	}
	fmt.Println("\nNote: on one host both configurations share every CPU, so the paper's")
	fmt.Println("placement effects don't appear here; run cmd/repro for the figure shapes.")
}
