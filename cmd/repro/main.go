// Command repro regenerates every evaluation figure of the paper as data
// series, using the calibrated simulator in internal/perfsim.
//
// Usage:
//
//	repro [-figure N] [-seed S] [-ramp SEC] [-measure SEC] [-quick]
//
// Without -figure it regenerates Figures 5-14. Output is aligned text: one
// block per figure, one line per sweep point (throughput figures) or per
// configuration (CPU figures), then one verdict line per shape claim checked
// under that figure (perfsim.Claims). The exit status is 1 if a claim fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/perfsim"
)

func main() {
	var (
		figure  = flag.Int("figure", 0, "regenerate only this figure number (5-14)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		ramp    = flag.Float64("ramp", 0, "ramp-up seconds (0 = default)")
		measure = flag.Float64("measure", 0, "measurement seconds (0 = default)")
		quick   = flag.Bool("quick", false, "short windows for a fast smoke run")
	)
	flag.Parse()

	opt := perfsim.Options{Seed: *seed, RampUp: *ramp, Measure: *measure}
	if *quick {
		opt.RampUp, opt.Measure = 80, 120
	}

	figs := perfsim.AllFigures()
	if *figure != 0 {
		figs = []perfsim.FigureID{perfsim.FigureID(*figure)}
	}
	failed := false
	var fd perfsim.FigureData
	for _, id := range figs {
		// A CPU figure plots the experiment of the throughput figure
		// before it, so each experiment is simulated once.
		if !id.CPU() || fd.Curves == nil {
			fd = perfsim.Figure(id, opt)
		}
		printFigure(os.Stdout, id, fd)
		for _, c := range perfsim.Claims() {
			if c.Figure != id {
				continue
			}
			var fails []string
			c.Check(fd, func(format string, args ...any) {
				fails = append(fails, fmt.Sprintf(format, args...))
			})
			if len(fails) == 0 {
				fmt.Printf("# claim %s: holds\n", c.Name)
			} else {
				fmt.Printf("# claim %s: FAILS: %s\n", c.Name, strings.Join(fails, "; "))
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printFigure(w *os.File, id perfsim.FigureID, fd perfsim.FigureData) {
	fmt.Fprintf(w, "\n=== Figure %d: %s ===\n", id, id.Title())
	if id.CPU() {
		fmt.Fprintf(w, "%-22s %8s %10s %8s %8s %8s %8s %9s\n",
			"configuration", "clients", "peak ipm", "Web%", "Servlet%", "EJB%", "DB%", "NIC Mb/s")
		for _, c := range fd.Curves {
			p := c.Peak()
			fmt.Fprintf(w, "%-22s %8d %10.0f %8.1f %8.1f %8.1f %8.1f %9.1f\n",
				c.Arch, p.Clients, p.ThroughputIPM,
				p.CPU[perfsim.TierWeb], p.CPU[perfsim.TierServlet],
				p.CPU[perfsim.TierEJB], p.CPU[perfsim.TierDB], p.WebNICMbps)
		}
		return
	}
	fmt.Fprintf(w, "%-8s", "clients")
	for _, c := range fd.Curves {
		fmt.Fprintf(w, " %20s", c.Arch)
	}
	fmt.Fprintln(w)
	for i := range fd.Curves[0].Results {
		fmt.Fprintf(w, "%-8d", fd.Curves[0].Results[i].Clients)
		for _, c := range fd.Curves {
			fmt.Fprintf(w, " %20.0f", c.Results[i].ThroughputIPM)
		}
		fmt.Fprintln(w)
	}
	for _, c := range fd.Curves {
		p := c.Peak()
		fmt.Fprintf(w, "# peak %-22s %6.0f ipm at %d clients (mean resp %.2fs, lockwait %.3f)\n",
			c.Arch, p.ThroughputIPM, p.Clients, p.MeanResponse, p.DBLockWaitFrac)
	}
}
