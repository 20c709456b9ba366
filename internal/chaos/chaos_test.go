package chaos

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// echoServer answers each newline-terminated line with the same line.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				r := bufio.NewReader(c)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if _, err := c.Write([]byte(line)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// roundTrip sends one line through conn and reads the echo, bounded by
// deadline.
func roundTrip(c net.Conn, line string, deadline time.Duration) (string, error) {
	c.SetDeadline(time.Now().Add(deadline))
	if _, err := c.Write([]byte(line + "\n")); err != nil {
		return "", err
	}
	got, err := bufio.NewReader(c).ReadString('\n')
	return strings.TrimSuffix(got, "\n"), err
}

func dialProxy(t *testing.T, p *Proxy) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestProxyForwardsCleanly(t *testing.T) {
	p, err := Listen("t", echoServer(t), Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	for i := 0; i < 10; i++ {
		msg := fmt.Sprintf("hello %d", i)
		got, err := roundTrip(c, msg, time.Second)
		if err != nil || got != msg {
			t.Fatalf("round trip %d: got %q err %v", i, got, err)
		}
	}
	if s := p.Stats(); s.Conns != 1 || s.Resets != 0 || s.Stalled != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLatencyFaultDelays(t *testing.T) {
	p, err := Listen("t", echoServer(t), Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	if _, err := roundTrip(c, "warm", time.Second); err != nil {
		t.Fatal(err)
	}
	p.Set(Fault{Kind: Latency, Delay: 60 * time.Millisecond})
	start := time.Now()
	got, err := roundTrip(c, "slow", 2*time.Second)
	if err != nil || got != "slow" {
		t.Fatalf("got %q err %v", got, err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("latency fault added only %v", d)
	}
	p.Clear()
	if s := p.Stats(); s.DelayedIO == 0 {
		t.Fatalf("stats should count delayed io: %+v", s)
	}
}

func TestStallBlackholesThenKills(t *testing.T) {
	p, err := Listen("t", echoServer(t), Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	if _, err := roundTrip(c, "warm", time.Second); err != nil {
		t.Fatal(err)
	}
	p.Set(Fault{Kind: Stall})
	// The stalled round trip must time out on the client's own deadline.
	if _, err := roundTrip(c, "void", 100*time.Millisecond); err == nil {
		t.Fatal("round trip through a stalled proxy succeeded")
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline expiry, got %v", err)
	}
	// Clearing the stall must KILL the connection, not deliver the
	// buffered "void" late (that late write is exactly the divergence
	// hazard the package documents).
	p.Clear()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c.SetDeadline(time.Now().Add(100 * time.Millisecond))
		buf := make([]byte, 64)
		_, err := c.Read(buf)
		if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			break // conn killed — EOF or RST, either is right
		}
		if err == nil {
			t.Fatal("stalled bytes were delivered after Clear")
		}
		if time.Now().After(deadline) {
			t.Fatal("connection survived Clear after a stall")
		}
	}
	if s := p.Stats(); s.Stalled != 1 {
		t.Fatalf("stats = %+v, want 1 stalled conn", s)
	}
}

func TestResetKillsEstablishedAndNew(t *testing.T) {
	p, err := Listen("t", echoServer(t), Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c := dialProxy(t, p)
	if _, err := roundTrip(c, "warm", time.Second); err != nil {
		t.Fatal(err)
	}
	p.Set(Fault{Kind: Reset})
	if _, err := roundTrip(c, "dead", 500*time.Millisecond); err == nil {
		t.Fatal("round trip on a reset connection succeeded")
	}
	// New connections are accepted then slammed shut.
	c2, err := net.DialTimeout("tcp", p.Addr(), time.Second)
	if err == nil {
		c2.SetDeadline(time.Now().Add(time.Second))
		if _, err := roundTrip(c2, "x", 500*time.Millisecond); err == nil {
			t.Fatal("round trip during a reset window succeeded")
		}
		c2.Close()
	}
	p.Clear()
	// Fresh connection after the window works.
	c3 := dialProxy(t, p)
	if got, err := roundTrip(c3, "back", time.Second); err != nil || got != "back" {
		t.Fatalf("after Clear: got %q err %v", got, err)
	}
}

func TestScheduleWindows(t *testing.T) {
	// Rule 1 slows everything from the start; rule 2 overrides with a
	// reset window. Last match wins.
	sched := Schedule{Seed: 42, Rules: []Rule{
		{Fault: Fault{Kind: Latency, Delay: 5 * time.Millisecond}},
		{Fault: Fault{Kind: Reset}, From: 150 * time.Millisecond, To: 300 * time.Millisecond},
	}}
	p, err := Listen("t", echoServer(t), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dialProxy(t, p)
	if got, err := roundTrip(c, "early", time.Second); err != nil || got != "early" {
		t.Fatalf("inside latency window: got %q err %v", got, err)
	}
	time.Sleep(200 * time.Millisecond) // now inside the reset window
	if _, err := roundTrip(c, "mid", 500*time.Millisecond); err == nil {
		t.Fatal("round trip inside the reset window succeeded")
	}
	time.Sleep(150 * time.Millisecond) // window over
	c2 := dialProxy(t, p)
	if got, err := roundTrip(c2, "late", time.Second); err != nil || got != "late" {
		t.Fatalf("after reset window: got %q err %v", got, err)
	}
}

func TestPerConnRule(t *testing.T) {
	sched := Schedule{Rules: []Rule{{Fault: Fault{Kind: Reset}, Conn: 2}}}
	p, err := Listen("t", echoServer(t), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c1 := dialProxy(t, p) // conn id 1: clean
	if got, err := roundTrip(c1, "one", time.Second); err != nil || got != "one" {
		t.Fatalf("conn 1: got %q err %v", got, err)
	}
	// conn id 2: reset on accept — which the client can already see as a
	// failed dial, not only as a failed first round trip.
	if c2, err := net.DialTimeout("tcp", p.Addr(), time.Second); err == nil {
		defer c2.Close()
		if _, err := roundTrip(c2, "two", 500*time.Millisecond); err == nil {
			t.Fatal("conn 2 should be reset by its rule")
		}
	}
	if got, err := roundTrip(c1, "again", time.Second); err != nil || got != "again" {
		t.Fatalf("conn 1 after conn 2 reset: got %q err %v", got, err)
	}
}

func TestFlapGeneratesAlternatingWindows(t *testing.T) {
	var s Schedule
	s.Flap(100*time.Millisecond, 3, 20*time.Millisecond, 30*time.Millisecond)
	if len(s.Rules) != 3 {
		t.Fatalf("rules = %d, want 3", len(s.Rules))
	}
	wantFrom := []time.Duration{100 * time.Millisecond, 150 * time.Millisecond, 200 * time.Millisecond}
	for i, r := range s.Rules {
		if r.Fault.Kind != Reset || r.From != wantFrom[i] || r.To != wantFrom[i]+20*time.Millisecond {
			t.Fatalf("rule %d = %+v", i, r)
		}
	}
}

func TestThrottleSlowsBulkTransfer(t *testing.T) {
	p, err := Listen("t", echoServer(t), Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Set(Fault{Kind: Throttle, BytesPerSec: 64 << 10})
	c := dialProxy(t, p)
	payload := strings.Repeat("x", 16<<10)
	start := time.Now()
	got, err := roundTrip(c, payload, 5*time.Second)
	if err != nil || got != payload {
		t.Fatalf("throttled transfer: len(got)=%d err=%v", len(got), err)
	}
	// 16KiB each way at 64KiB/s ≈ 500ms; assert well above untroubled.
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("throttle had no effect: %v", d)
	}
}
