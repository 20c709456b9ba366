// Package chaos is a fault-injecting TCP proxy for exercising the stack's
// slow-failure paths. The paper's experiment kills a tier and asks which
// bottleneck surfaces next, but a clean kill is the easy case — a closed
// listener refuses instantly. The dominant real-world failure mode is the
// peer that is *up but wrong*: slow, stalled, resetting mid-stream, or
// flapping. chaos.Proxy sits between a client and any TCP backend (db
// wire, AJP, RMI, HTTP) and applies scripted faults per connection, so
// tests can replay the same fault sequence deterministically and assert
// the stack degrades instead of hanging.
//
// A proxy has one fault state: a Schedule and the time it started. A
// schedule is an ordered list of rules (fault + time window relative to
// its start); the last matching rule wins, so a broad "slow everything"
// rule can be overridden by a narrow "but reset from 200ms to 300ms".
// Play replaces the schedule and counts its windows from the call; Set is
// a one-rule, open-ended schedule and Clear the empty one. Each applies to
// new *and established* connections — tests reach a core.Lab's proxies
// through its DBProxy/AppProxy accessors to do this.
//
// Jitter is seeded per connection from (Schedule.Seed, conn id), so one
// seed replays one fault sequence. Connection ids count connections in
// the order their relays start, which the listener's one goroutine per
// accept leaves close to, but not strictly, accept order.
//
// Safety invariant — stalls kill: a stalled (blackholed) connection
// buffers nothing for later. When its stall window ends, or the schedule
// changes, the connection is torn down, never resumed. Resuming would
// deliver a write the client long since timed out on — applied on a
// replica the cluster already ejected, silently diverging the very
// byte-identical invariant the chaos tests assert.
package chaos

import (
	"bufio"
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
)

// Kind names a fault class.
type Kind int

const (
	// None forwards bytes untouched.
	None Kind = iota
	// Latency delays each read by Delay (+ up to Jitter, seeded).
	Latency
	// Stall blackholes the connection: bytes stop flowing in both
	// directions but the sockets stay open, so the peer blocks until its
	// own deadline fires. Leaving a stall kills the connection.
	Stall
	// Reset tears the connection down mid-stream (RST-like: close with
	// pending data) and closes new connections immediately on accept.
	Reset
)

// Fault is one concrete fault: a kind plus its parameters.
type Fault struct {
	Kind   Kind
	Delay  time.Duration // Latency: fixed delay per read
	Jitter time.Duration // Latency: additional seeded random delay in [0,Jitter)
}

// Rule scripts a fault for a slice of time. From==0,To==0 means the whole
// run.
type Rule struct {
	Fault Fault
	From  time.Duration // window start, relative to the schedule's start
	To    time.Duration // window end (0 = open-ended)
}

// Schedule is a deterministic fault script. Rules are evaluated in order
// and the last match wins; no match means no fault. The same Seed and
// rule list replay the same per-connection jitter sequence.
type Schedule struct {
	Seed  uint64
	Rules []Rule
}

// Flap appends alternating Reset windows to a schedule: starting at
// `from`, `cycles` windows of `down` downtime separated by `up` of
// healthy forwarding. It models the link that keeps coming back just
// long enough to be trusted again.
func (s *Schedule) Flap(from time.Duration, cycles int, down, up time.Duration) {
	at := from
	for i := 0; i < cycles; i++ {
		s.Rules = append(s.Rules, Rule{Fault: Fault{Kind: Reset}, From: at, To: at + down})
		at += down + up
	}
}

// playing is the proxy's one fault state: a schedule and when it started.
type playing struct {
	Schedule
	start time.Time
}

// fault resolves the active fault right now: the last rule whose window
// holds.
func (s *playing) fault() Fault {
	since := time.Since(s.start)
	var f Fault
	for _, r := range s.Rules {
		if since >= r.From && (r.To == 0 || since < r.To) {
			f = r.Fault
		}
	}
	return f
}

// Stats counts what the proxy did to its traffic.
type Stats struct {
	Conns     int64 `json:"conns"`
	Resets    int64 `json:"resets"`
	Stalled   int64 `json:"stalled"`
	DelayedIO int64 `json:"delayed_io"`
}

// Proxy is a fault-injecting TCP forwarder. Create with Listen, point
// clients at Addr(), and script faults with Play, Set and Clear.
type Proxy struct {
	backend string
	l       *frame.Listener
	addr    string
	state   atomic.Pointer[playing]

	mu    sync.Mutex
	conns map[*proxyConn]struct{}

	conns_    atomic.Int64
	resets    atomic.Int64
	stalled   atomic.Int64
	delayedIO atomic.Int64
}

// Listen starts a transparent proxy on a fresh loopback port forwarding to
// backend.
func Listen(backend string) (*Proxy, error) {
	p := &Proxy{backend: backend, conns: make(map[*proxyConn]struct{})}
	p.state.Store(&playing{start: time.Now()})
	p.l = frame.NewListener("chaos", nil, p.serve)
	addr, err := p.l.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.addr = addr.String()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial instead of
// the backend.
func (p *Proxy) Addr() string { return p.addr }

// Play replaces the proxy's schedule with s, its windows counted from
// now, for all connections, current and future. Connections stalled
// under the old schedule are torn down (the stall-kills invariant), and
// every connection's jitter stream restarts from (s.Seed, conn id).
func (p *Proxy) Play(s Schedule) {
	p.state.Store(&playing{Schedule: s, start: time.Now()})
	p.poke()
}

// Set plays f for all connections, current and future, until the next
// Play, Set or Clear. Setting a Stall freezes established connections in
// place.
func (p *Proxy) Set(f Fault) { p.Play(Schedule{Rules: []Rule{{Fault: f}}}) }

// Clear plays the empty schedule: bytes flow untouched.
func (p *Proxy) Clear() { p.Play(Schedule{}) }

// poke re-evaluates established connections after the schedule changed:
// stalled connections are killed (never resumed), and a Reset in force
// kills everything immediately.
func (p *Proxy) poke() {
	reset := p.fault().Kind == Reset
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		if reset {
			c.reset()
		} else if c.wasStalled.Load() {
			// The stall is over one way or another; late delivery of the
			// bytes buffered behind it is forbidden.
			c.kill()
		}
	}
}

func (p *Proxy) fault() Fault { return p.state.Load().fault() }

// Stats snapshots the proxy's fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:     p.conns_.Load(),
		Resets:    p.resets.Load(),
		Stalled:   p.stalled.Load(),
		DelayedIO: p.delayedIO.Load(),
	}
}

// Close stops accepting and tears down every proxied connection. The
// schedule is cleared first: a stalled or delayed relay exits only when it
// is killed or its fault lifts, and the listener's Close waits for every
// relay.
func (p *Proxy) Close() error {
	p.Clear()
	return p.l.Close()
}

// serve relays one accepted connection; the listener closes cl on return.
func (p *Proxy) serve(cl net.Conn, _ *bufio.Reader, _ *bufio.Writer) {
	id := p.conns_.Add(1)
	if p.fault().Kind == Reset {
		// Accept-then-slam: the flapping listener's signature.
		p.resets.Add(1)
		abortiveClose(cl)
		return
	}
	be, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		return
	}
	c := &proxyConn{p: p, id: uint64(id), cl: cl, be: be}
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.pump(cl, be) }()
	go func() { defer wg.Done(); c.pump(be, cl) }()
	wg.Wait()
	c.kill()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

type proxyConn struct {
	p      *Proxy
	id     uint64
	cl, be net.Conn

	rngMu  sync.Mutex // two pumps share the seeded stream
	rng    *rand.Rand
	rngFor *playing // the schedule rng was seeded for

	killed     atomic.Bool
	wasStalled atomic.Bool
}

// kill closes both halves. Closing with unread buffered data is as close
// to an RST as portable Go gets, and the wire/AJP/RMI clients treat any
// mid-stream EOF as a transport error anyway.
func (c *proxyConn) kill() {
	if c.killed.CompareAndSwap(false, true) {
		abortiveClose(c.cl)
		c.be.Close()
	}
}

// reset counts and kills: the connection met a Reset.
func (c *proxyConn) reset() {
	c.p.resets.Add(1)
	c.kill()
}

// abortiveClose makes Close send RST instead of FIN where the platform
// allows it, so a client blocked on a read fails fast rather than seeing
// a graceful EOF. Errors are ignored — plain Close is a fine fallback.
func abortiveClose(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	nc.Close()
}

// pump copies src→dst one read at a time, consulting the active fault
// before each forward. Short reads are fine: every chunk re-evaluates the
// schedule, so a connection slides between fault windows mid-stream.
func (c *proxyConn) pump(src, dst net.Conn) {
	buf := make([]byte, 16<<10)
	for {
		// Bound each read so a quiet connection still notices a fault
		// window opening (e.g. Reset at t=200ms must kill an idle conn).
		src.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := src.Read(buf)
		if n > 0 {
			if !c.apply(buf[:n], dst) {
				return
			}
		}
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Idle poll tick: re-check the schedule, keep pumping.
				switch c.p.fault().Kind {
				case Reset:
					c.reset()
					return
				case Stall:
					if !c.stall() {
						return
					}
				}
				continue
			}
			c.kill()
			return
		}
	}
}

// apply forwards one chunk under the currently active fault. Returns
// false when the connection died.
func (c *proxyConn) apply(chunk []byte, dst net.Conn) bool {
	st := c.p.state.Load()
	switch f := st.fault(); f.Kind {
	case Reset:
		c.reset()
		return false
	case Stall:
		// stall blackholes until the window ends, then kills (the
		// stall-kills invariant): the chunk is never delivered.
		return c.stall()
	case Latency:
		d := f.Delay
		if f.Jitter > 0 {
			d += c.jitter(st, f.Jitter)
		}
		if d > 0 {
			c.p.delayedIO.Add(1)
			if !c.sleep(d) {
				return false
			}
		}
	}
	dst.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := dst.Write(chunk); err != nil {
		c.kill()
		return false
	}
	return true
}

// jitter draws a delay in [0,max) from the connection's stream for the
// schedule st, seeded from (st.Seed, conn id): jitter replays exactly for
// a given seed, independent of goroutine interleaving across connections.
func (c *proxyConn) jitter(st *playing, max time.Duration) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rngFor != st {
		c.rng, c.rngFor = rand.New(rand.NewPCG(st.Seed, c.id)), st
	}
	return time.Duration(c.rng.Int64N(int64(max)))
}

// stall blackholes the connection until its stall window ends, then kills
// it (see the package invariant). Always leaves the connection dead;
// returns false for the caller's convenience.
func (c *proxyConn) stall() bool {
	if c.wasStalled.CompareAndSwap(false, true) {
		c.p.stalled.Add(1)
	}
	for !c.killed.Load() && c.p.fault().Kind == Stall {
		time.Sleep(5 * time.Millisecond)
	}
	c.kill()
	return false
}

// sleep waits d in small slices, re-checking the fault after each: a Reset
// or Stall window opening mid-delay kills the connection promptly, and a
// lifted fault ends the delay. Returns false if killed.
func (c *proxyConn) sleep(d time.Duration) bool {
	for d > 0 && !c.killed.Load() {
		step := min(d, 10*time.Millisecond)
		time.Sleep(step)
		d -= step
		switch c.p.fault().Kind {
		case Reset:
			c.reset()
			return false
		case Stall:
			return c.stall()
		case None:
			d = 0
		}
	}
	return !c.killed.Load()
}
