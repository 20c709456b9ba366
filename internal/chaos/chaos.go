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
// Faults are scheduled two ways, composable:
//
//   - A Schedule: an ordered list of rules (connection matcher + fault +
//     time window relative to proxy start). The last matching rule wins,
//     so a broad "slow everything" rule can be overridden by a narrow
//     "but reset connection 3". Jitter is seeded per connection from
//     (Schedule.Seed, conn id), so one seed replays one fault sequence.
//   - Manual overrides: Set(fault)/Clear() flip the active fault for new
//     *and established* connections — tests reach a core.Lab's proxies
//     through its DBProxy/AppProxy accessors to do this.
//
// Safety invariant — stalls kill: a stalled (blackholed) connection
// buffers nothing for later. When its stall window ends, or the override
// clears, the connection is torn down, never resumed. Resuming would
// deliver a write the client long since timed out on — applied on a
// replica the cluster already ejected, silently diverging the very
// byte-identical invariant the chaos tests assert.
package chaos

import (
	"errors"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
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
	// Throttle caps forwarding to BytesPerSec, the saturated-uplink shape.
	Throttle
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Latency:
		return "latency"
	case Stall:
		return "stall"
	case Reset:
		return "reset"
	case Throttle:
		return "throttle"
	}
	return "unknown"
}

// Fault is one concrete fault: a kind plus its parameters.
type Fault struct {
	Kind        Kind
	Delay       time.Duration // Latency: fixed delay per read
	Jitter      time.Duration // Latency: additional seeded random delay in [0,Jitter)
	BytesPerSec int           // Throttle: forwarding cap
}

// Rule scripts a fault for a slice of connections and a slice of time.
// Zero-value matchers match everything: From==0,To==0 means the whole
// run; Conn==0 means every connection (connection ids start at 1).
type Rule struct {
	Fault Fault
	From  time.Duration // window start, relative to proxy start
	To    time.Duration // window end (0 = open-ended)
	Conn  int           // match one connection id (0 = all)
}

func (r Rule) matches(connID int, since time.Duration) bool {
	if r.Conn != 0 && r.Conn != connID {
		return false
	}
	if since < r.From {
		return false
	}
	if r.To != 0 && since >= r.To {
		return false
	}
	return true
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

// Stats counts what the proxy did to its traffic.
type Stats struct {
	Conns     int64 `json:"conns"`
	Resets    int64 `json:"resets"`
	Stalled   int64 `json:"stalled"`
	DelayedIO int64 `json:"delayed_io"`
}

// Proxy is a fault-injecting TCP forwarder. Create with Listen, point
// clients at Addr(), and script faults via the Schedule or Set/Clear.
type Proxy struct {
	name    string
	backend string
	ln      net.Listener
	sched   Schedule
	start   time.Time

	override atomic.Pointer[Fault] // manual Set/Clear, wins over the schedule

	mu     sync.Mutex
	conns  map[*proxyConn]struct{}
	closed bool
	nextID int

	conns_    atomic.Int64
	resets    atomic.Int64
	stalled   atomic.Int64
	delayedIO atomic.Int64
}

// Listen starts a proxy on a fresh loopback port forwarding to backend.
func Listen(name, backend string, sched Schedule) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		name:    name,
		backend: backend,
		ln:      ln,
		sched:   sched,
		start:   time.Now(),
		conns:   make(map[*proxyConn]struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial instead of
// the backend.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Backend returns the address the proxy forwards to.
func (p *Proxy) Backend() string { return p.backend }

// Set overrides the schedule with a manual fault for all connections,
// current and future, until Clear. Setting a Stall freezes established
// connections in place; per the stall-kills invariant they are torn down
// when the override changes.
func (p *Proxy) Set(f Fault) {
	p.override.Store(&f)
	p.poke(f)
}

// Clear removes the manual override, returning control to the schedule.
func (p *Proxy) Clear() {
	p.override.Store(nil)
	p.poke(Fault{Kind: None})
}

// poke re-evaluates established connections after an override flip:
// stalled connections are killed (never resumed), and a Reset override
// kills everything immediately.
func (p *Proxy) poke(now Fault) {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		if now.Kind == Reset {
			c.kill()
			p.resets.Add(1)
			continue
		}
		if c.wasStalled.Load() {
			// The stall is over one way or another; late delivery of the
			// bytes buffered behind it is forbidden.
			c.kill()
		}
	}
}

// Stats snapshots the proxy's fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:     p.conns_.Load(),
		Resets:    p.resets.Load(),
		Stalled:   p.stalled.Load(),
		DelayedIO: p.delayedIO.Load(),
	}
}

// Close stops accepting and tears down every proxied connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, c := range conns {
		c.kill()
	}
	return err
}

func (p *Proxy) acceptLoop() {
	for {
		cl, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			cl.Close()
			return
		}
		p.nextID++
		id := p.nextID
		p.mu.Unlock()
		p.conns_.Add(1)
		go p.serve(cl, id)
	}
}

// faultFor resolves the active fault for a connection right now: the
// manual override if set, else the last matching schedule rule.
func (p *Proxy) faultFor(connID int) Fault {
	if f := p.override.Load(); f != nil {
		return *f
	}
	since := time.Since(p.start)
	active := Fault{Kind: None}
	for _, r := range p.sched.Rules {
		if r.matches(connID, since) {
			active = r.Fault
		}
	}
	return active
}

func (p *Proxy) serve(cl net.Conn, id int) {
	if p.faultFor(id).Kind == Reset {
		// Accept-then-slam: the flapping listener's signature.
		p.resets.Add(1)
		abortiveClose(cl)
		return
	}
	be, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		cl.Close()
		return
	}
	c := &proxyConn{p: p, id: id, cl: cl, be: be,
		// rng is per-connection and seeded from (schedule seed, conn id):
		// jitter replays exactly for a given seed, independent of
		// goroutine interleaving across connections.
		rng: rand.New(rand.NewPCG(p.sched.Seed, uint64(id)))}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		cl.Close()
		be.Close()
		return
	}
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
	id     int
	cl, be net.Conn
	rng    *rand.Rand
	rngMu  sync.Mutex // two pumps share the seeded stream

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
				f := c.p.faultFor(c.id)
				switch f.Kind {
				case Reset:
					c.p.resets.Add(1)
					c.kill()
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
	switch f := c.p.faultFor(c.id); f.Kind {
	case Reset:
		c.p.resets.Add(1)
		c.kill()
		return false
	case Stall:
		// stall blackholes until the window ends, then kills (the
		// stall-kills invariant): the chunk is never delivered.
		return c.stall()
	case Latency:
		d := f.Delay
		if f.Jitter > 0 {
			c.rngMu.Lock()
			d += time.Duration(c.rng.Int64N(int64(f.Jitter)))
			c.rngMu.Unlock()
		}
		if d > 0 {
			c.p.delayedIO.Add(1)
			if !c.sleep(d) {
				return false
			}
		}
	case Throttle:
		if f.BytesPerSec > 0 {
			d := time.Duration(float64(len(chunk)) / float64(f.BytesPerSec) * float64(time.Second))
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

// stall blackholes the connection until its stall window ends, then kills
// it (see the package invariant). Always leaves the connection dead;
// returns false for the caller's convenience.
func (c *proxyConn) stall() bool {
	if c.wasStalled.CompareAndSwap(false, true) {
		c.p.stalled.Add(1)
	}
	for !c.killed.Load() {
		f := c.p.faultFor(c.id)
		if f.Kind != Stall {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.kill()
	return false
}

// sleep waits d in small slices so a Reset window opening mid-delay still
// kills the connection promptly. Returns false if killed.
func (c *proxyConn) sleep(d time.Duration) bool {
	const slice = 10 * time.Millisecond
	for d > 0 {
		if c.killed.Load() {
			return false
		}
		step := d
		if step > slice {
			step = slice
		}
		time.Sleep(step)
		d -= step
		if f := c.p.faultFor(c.id); f.Kind == Reset || f.Kind == Stall {
			if f.Kind == Reset {
				c.p.resets.Add(1)
			} else {
				c.stall()
			}
			c.kill()
			return false
		}
	}
	return !c.killed.Load()
}
