// Package cluster models the paper's hardware testbed on top of the
// discrete-event kernel: single-CPU machines connected by a switched
// full-duplex Ethernet. Each machine has a processor-sharing CPU and a pair
// of NIC links (transmit and receive) sharing the link bandwidth, which is
// how a switched LAN behaves — flows to different hosts do not contend with
// each other, only flows sharing an endpoint do.
package cluster

import (
	"fmt"

	"repro/internal/sim"
)

// Machine is a simulated host: one CPU and one full-duplex NIC.
type Machine struct {
	Name string
	CPU  *sim.PSResource
	TX   *sim.PSResource
	RX   *sim.PSResource
}

// Config describes the homogeneous cluster the paper uses.
type Config struct {
	// CPUSpeed is the relative CPU speed; service demands are expressed in
	// seconds on a speed-1.0 CPU (the paper's 1.33 GHz Athlon).
	CPUSpeed float64
	// LinkBandwidth is the NIC bandwidth in bytes/second
	// (100 Mbps switched Ethernet = 12.5e6 B/s).
	LinkBandwidth float64
	// Latency is the one-way wire latency in seconds.
	Latency float64
}

// DefaultConfig mirrors the paper's testbed: 1.33 GHz Athlons on switched
// 100 Mbps Ethernet with LAN-scale latency.
func DefaultConfig() Config {
	return Config{CPUSpeed: 1.0, LinkBandwidth: 12.5e6, Latency: 100e-6}
}

// Cluster is a set of machines plus the switching fabric.
type Cluster struct {
	sim      *sim.Sim
	cfg      Config
	machines map[string]*Machine
}

// New creates an empty cluster attached to s.
func New(s *sim.Sim, cfg Config) *Cluster {
	if cfg.CPUSpeed <= 0 {
		cfg.CPUSpeed = 1.0
	}
	if cfg.LinkBandwidth <= 0 {
		cfg.LinkBandwidth = 12.5e6
	}
	return &Cluster{sim: s, cfg: cfg, machines: make(map[string]*Machine)}
}

// AddMachine creates a machine with the cluster-wide CPU speed and NIC
// bandwidth. Adding a duplicate name panics: configurations are static.
func (c *Cluster) AddMachine(name string) *Machine {
	if _, dup := c.machines[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate machine %q", name))
	}
	m := &Machine{
		Name: name,
		CPU:  sim.NewPSResource(c.sim, c.cfg.CPUSpeed),
		TX:   sim.NewPSResource(c.sim, c.cfg.LinkBandwidth),
		RX:   sim.NewPSResource(c.sim, c.cfg.LinkBandwidth),
	}
	c.machines[name] = m
	return m
}

// Send models transferring size bytes from machine a to machine b through
// the switch: the bytes occupy a's transmit link and b's receive link, plus
// one propagation latency. done fires when the last byte is delivered.
// Loopback (a == b) costs nothing but a zero-delay event, matching
// same-machine IPC whose cost is accounted as CPU time instead.
func (c *Cluster) Send(a, b *Machine, size float64, done func()) {
	if done == nil {
		panic("cluster: Send with nil done")
	}
	if a == b {
		c.sim.Schedule(0, done)
		return
	}
	a.TX.Use(size, func() {
		c.sim.Schedule(c.cfg.Latency, func() {
			b.RX.Use(size, done)
		})
	})
}

// Utilization snapshots CPU and NIC busy fractions over a window. Callers
// snapshot with Mark at the start of the measurement phase.
type Mark struct {
	t    float64
	busy map[*sim.PSResource]float64
}

// MarkNow records the busy-time counters of every resource in the cluster.
func (c *Cluster) MarkNow() *Mark {
	m := &Mark{t: c.sim.Now(), busy: make(map[*sim.PSResource]float64)}
	for _, mach := range c.machines {
		for _, r := range []*sim.PSResource{mach.CPU, mach.TX, mach.RX} {
			m.busy[r] = r.BusyTime()
		}
	}
	return m
}

// CPUUtilization returns machine m's CPU utilization since the mark.
func (c *Cluster) CPUUtilization(mark *Mark, m *Machine) float64 {
	return m.CPU.UtilizationSince(mark.busy[m.CPU], mark.t)
}

// NICThroughput returns machine m's transmit throughput in bytes/second
// since the mark.
func (c *Cluster) NICThroughput(mark *Mark, m *Machine) float64 {
	dt := c.sim.Now() - mark.t
	if dt <= 0 {
		return 0
	}
	// Work done on a PS link is exactly the bytes moved while busy.
	return (m.TX.BusyTime() - mark.busy[m.TX]) * m.TX.Speed() / dt
}
