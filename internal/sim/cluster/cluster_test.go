package cluster

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestSendLatencyAndBandwidth(t *testing.T) {
	s := sim.New()
	cfg := Config{CPUSpeed: 1, LinkBandwidth: 1000, Latency: 0.01}
	c := New(s, cfg)
	a := c.AddMachine("a")
	b := c.AddMachine("b")
	var doneAt float64
	c.Send(a, b, 500, func() { doneAt = s.Now() })
	s.Run()
	// 500 bytes at 1000 B/s on tx (0.5s) + 0.01 latency + 0.5s on rx.
	want := 0.5 + 0.01 + 0.5
	if math.Abs(doneAt-want) > 1e-9 {
		t.Fatalf("delivery at %g, want %g", doneAt, want)
	}
}

func TestLoopbackIsFree(t *testing.T) {
	s := sim.New()
	c := New(s, DefaultConfig())
	a := c.AddMachine("a")
	var doneAt float64 = -1
	c.Send(a, a, 1e9, func() { doneAt = s.Now() })
	s.Run()
	if doneAt != 0 {
		t.Fatalf("loopback delivered at %g, want 0", doneAt)
	}
}

func TestSwitchedFabricNoCrossContention(t *testing.T) {
	// a->b and c->d transfer concurrently at full speed on a switch.
	s := sim.New()
	cfg := Config{CPUSpeed: 1, LinkBandwidth: 1000, Latency: 0}
	c := New(s, cfg)
	a, b := c.AddMachine("a"), c.AddMachine("b")
	x, y := c.AddMachine("x"), c.AddMachine("y")
	var t1, t2 float64
	c.Send(a, b, 1000, func() { t1 = s.Now() })
	c.Send(x, y, 1000, func() { t2 = s.Now() })
	s.Run()
	if math.Abs(t1-2.0) > 1e-9 || math.Abs(t2-2.0) > 1e-9 {
		t.Fatalf("deliveries at %g,%g, want 2.0 each (no cross contention)", t1, t2)
	}
}

func TestSharedEndpointContends(t *testing.T) {
	// Two flows out of the same machine share its TX link.
	s := sim.New()
	cfg := Config{CPUSpeed: 1, LinkBandwidth: 1000, Latency: 0}
	c := New(s, cfg)
	a := c.AddMachine("a")
	b := c.AddMachine("b")
	d := c.AddMachine("d")
	var ends []float64
	c.Send(a, b, 1000, func() { ends = append(ends, s.Now()) })
	c.Send(a, d, 1000, func() { ends = append(ends, s.Now()) })
	s.Run()
	for _, e := range ends {
		// Each spends 2s on the shared TX link, then 1s alone on its RX.
		if math.Abs(e-3.0) > 1e-9 {
			t.Fatalf("delivery at %g, want 3.0 (TX shared)", e)
		}
	}
}

func TestDuplicateMachinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate machine")
		}
	}()
	s := sim.New()
	c := New(s, DefaultConfig())
	c.AddMachine("a")
	c.AddMachine("a")
}

func TestCPUUtilizationWindow(t *testing.T) {
	s := sim.New()
	c := New(s, Config{CPUSpeed: 1, LinkBandwidth: 1000, Latency: 0})
	a := c.AddMachine("a")
	// Busy 1s of the first 2s window.
	a.CPU.Use(1.0, func() {})
	s.RunUntil(2.0)
	mark := c.MarkNow()
	// Busy 0.5s of the next 1s window.
	a.CPU.Use(0.5, func() {})
	s.RunUntil(3.0)
	if u := c.CPUUtilization(mark, a); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("windowed utilization %g, want 0.5", u)
	}
}

func TestNICThroughput(t *testing.T) {
	s := sim.New()
	c := New(s, Config{CPUSpeed: 1, LinkBandwidth: 1000, Latency: 0})
	a := c.AddMachine("a")
	b := c.AddMachine("b")
	mark := c.MarkNow()
	c.Send(a, b, 500, func() {})
	s.RunUntil(1.0)
	// 500 bytes moved during a 1s window.
	if got := c.NICThroughput(mark, a); math.Abs(got-500) > 1e-6 {
		t.Fatalf("NIC throughput %g, want 500", got)
	}
}
