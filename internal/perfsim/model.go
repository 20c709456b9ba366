// Package perfsim reproduces the paper's evaluation figures with a
// calibrated discrete-event simulation of the four-machine testbed.
//
// The paper (Cecchet et al., MIDDLEWARE 2003) measures six configurations of
// a dynamic-content web site — PHP in the web server, servlets co-located or
// on a dedicated machine (each with and without engine-side locking), and an
// EJB server — under two benchmarks (a TPC-W bookstore and a RUBiS-style
// auction site). The original results depend on which physical machine's CPU
// saturates and on MySQL table-lock contention, neither of which can be
// observed by running all tiers on a single host. perfsim therefore models
// the cluster (internal/sim/cluster) and replays the benchmarks' interaction
// classes through each architecture's tier graph, with per-tier service
// demands calibrated from the paper's own measurements (see calibrate.go).
//
// Absolute interactions/minute are not the goal; the reproduced quantity is
// the shape of every figure: which configuration wins, by what factor, where
// the curves peak, and which machine saturates.
package perfsim

import (
	"fmt"

	"repro/internal/arch"
)

// Arch and Benchmark are declared in the leaf internal/arch, which the real
// stack imports instead of the simulator; perfsim keeps the names callers use.
type Arch = arch.Arch
type Benchmark = arch.Benchmark

const (
	ArchPHP                  = arch.PHP
	ArchServlet              = arch.Servlet
	ArchServletSync          = arch.ServletSync
	ArchServletDedicated     = arch.ServletDedicated
	ArchServletDedicatedSync = arch.ServletDedicatedSync
	ArchEJB                  = arch.EJB

	Bookstore = arch.Bookstore
	Auction   = arch.Auction
)

// Archs lists all six configurations in the paper's presentation order.
func Archs() []Arch { return arch.Archs() }

// Mix selects a workload mix within a benchmark.
type Mix int

const (
	// BrowsingMix: bookstore 95% read-only, auction 100% read-only.
	BrowsingMix Mix = iota
	// ShoppingMix: bookstore 80% read-only (TPC-W's representative mix).
	ShoppingMix
	// OrderingMix: bookstore 50% read-only.
	OrderingMix
	// BiddingMix: auction with 15% read-write (the representative mix).
	BiddingMix
)

func (m Mix) String() string {
	switch m {
	case BrowsingMix:
		return "browsing"
	case ShoppingMix:
		return "shopping"
	case OrderingMix:
		return "ordering"
	case BiddingMix:
		return "bidding"
	default:
		return fmt.Sprintf("Mix(%d)", int(m))
	}
}

// Tier names the simulated machines; Result reports utilization per tier.
type Tier string

const (
	TierWeb     Tier = "WebServer"
	TierServlet Tier = "Servlet Container"
	TierEJB     Tier = "EJB Server"
	TierDB      Tier = "Database"
)

// Options controls a simulation run. The zero value is completed by
// (*Options).withDefaults.
type Options struct {
	// Seed makes runs reproducible; runs with equal options are identical.
	Seed int64
	// RampUp is the virtual warm-up time in seconds before measurement.
	RampUp float64
	// Measure is the virtual measurement window in seconds.
	Measure float64
	// Costs overrides the calibrated cost table; nil uses DefaultCosts.
	Costs *Costs
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RampUp <= 0 {
		o.RampUp = 240
	}
	if o.Measure <= 0 {
		o.Measure = 360
	}
	if o.Costs == nil {
		c := DefaultCosts()
		o.Costs = &c
	}
	return o
}

// Result summarizes one simulated experiment (one configuration at one
// client count).
type Result struct {
	Benchmark Benchmark
	Mix       Mix
	Arch      Arch
	Clients   int

	// ThroughputIPM is the measured throughput in interactions per minute,
	// the unit of the paper's Figures 5, 7, 9, 11 and 13.
	ThroughputIPM float64
	// MeanResponse is the mean interaction response time in seconds.
	MeanResponse float64
	// CPU is per-tier CPU utilization in percent over the measurement
	// window (the unit of Figures 6, 8, 10, 12 and 14). Only the tiers
	// present in the configuration appear.
	CPU map[Tier]float64
	// WebNICMbps is the web server's client-facing transmit traffic in
	// megabits per second (the paper reports 94 Mb/s at the auction
	// browsing peak).
	WebNICMbps float64
	// DBLockWaitFrac is the fraction of total virtual time interactions
	// spent waiting for database table locks, an observability aid for the
	// lock-contention analysis in sections 5.1 and 5.3.
	DBLockWaitFrac float64
	// Completed is the raw number of interactions in the window.
	Completed int64
}
