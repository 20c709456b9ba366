package chaos

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
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
	p, err := Listen(echoServer(t))
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
	p, err := Listen(echoServer(t))
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
	p, err := Listen(echoServer(t))
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
	p, err := Listen(echoServer(t))
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
	p, err := Listen(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Play(sched)

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

	// A second Play restarts the windows from the call.
	p.Play(sched)
	c3 := dialProxy(t, p)
	if got, err := roundTrip(c3, "replay", time.Second); err != nil || got != "replay" {
		t.Fatalf("inside the replayed latency window: got %q err %v", got, err)
	}
	time.Sleep(200 * time.Millisecond)
	if _, err := roundTrip(c3, "replay-mid", 500*time.Millisecond); err == nil {
		t.Fatal("the replayed reset window did not open")
	}
	// Clear replaces the schedule: inside what was its reset window,
	// forwarding is clean.
	p.Clear()
	c4 := dialProxy(t, p)
	if got, err := roundTrip(c4, "cleared", time.Second); err != nil || got != "cleared" {
		t.Fatalf("after Clear inside the reset window: got %q err %v", got, err)
	}
	// Set replaces a schedule too, and the Clear after it leaves nothing
	// of the schedule behind: its reset window never opens.
	p.Play(sched)
	p.Set(Fault{Kind: Reset})
	if c5, err := net.DialTimeout("tcp", p.Addr(), time.Second); err == nil {
		defer c5.Close()
		if _, err := roundTrip(c5, "set", 500*time.Millisecond); err == nil {
			t.Fatal("round trip under a Set reset succeeded")
		}
	}
	p.Clear()
	time.Sleep(200 * time.Millisecond)
	c6 := dialProxy(t, p)
	if got, err := roundTrip(c6, "gone", time.Second); err != nil || got != "gone" {
		t.Fatalf("the replaced schedule's reset window fired: got %q err %v", got, err)
	}
}

// TestCloseWhileStalled pins the shutdown path: Close returns promptly with
// one relay stalled and one inside a latency delay, and leaves no relay
// goroutine behind. A relay leaves a stall only when it is killed or its
// fault lifts, and the listener's Close waits for every relay.
func TestCloseWhileStalled(t *testing.T) {
	backend := echoServer(t)
	stalled, err := Listen(backend)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := Listen(backend)
	if err != nil {
		t.Fatal(err)
	}
	stalled.Set(Fault{Kind: Stall})
	delayed.Set(Fault{Kind: Latency, Delay: time.Minute})
	for _, p := range []*Proxy{stalled, delayed} {
		c := dialProxy(t, p)
		if _, err := c.Write([]byte("held\n")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a stalled relay", func() bool { return stalled.Stats().Stalled == 1 })
	waitFor(t, "a delayed relay", func() bool { return delayed.Stats().DelayedIO == 1 })

	for _, p := range []*Proxy{stalled, delayed} {
		start := time.Now()
		p.Close()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Close took %v", d)
		}
	}
	waitFor(t, "the relays to exit", func() bool {
		buf := make([]byte, 1<<20)
		return !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "chaos.(*proxyConn)")
	})
}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
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
