// Package pool is the shared transport-connection pool under the stack's
// three clients — the database wire client (internal/sqldb/wire), the AJP
// web-to-servlet connector (internal/ajp) and the RMI client
// (internal/rmi). The paper's analysis hinges on identifying which tier
// saturates under each middleware configuration, so unlike the three
// channel pools it replaces, this one is instrumented: every pool counts
// dials, borrows, waits, cumulative wait time and discards, and records
// every borrow's latency in a stats.Histogram, so the tiers above can report
// where requests spend their time queueing.
//
// Semantics: connections are dialed lazily up to a fixed capacity;
// borrowers queue FIFO when the pool is exhausted; a connection returned
// as broken is destroyed and its capacity reclaimed immediately (a queued
// borrower dials a replacement rather than waiting for a healthy return);
// Close is safe against concurrent Get/Put — the pre-refactor wire.Pool
// could panic on send-to-closed-channel when Put raced Close. Do retries a
// transport failure once, immediately, on a fresh connection (the stale
// pooled connection) and never retries a deadline expiry; that is the whole
// retry policy.
package pool

import (
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// ErrClosed is returned by Get after Close.
var ErrClosed = errors.New("pool: closed")

// ErrWaitTimeout is returned by Get when the pool stayed exhausted for the
// whole wait deadline. Before the deadline existed, a borrower queued on a
// pool whose every connection was stuck talking to a stalled peer blocked
// forever; now the caller gets a bounded, typed failure it can convert
// into a clean error (or a failover) instead of a hang.
var ErrWaitTimeout = errors.New("pool: wait timeout (pool exhausted)")

// Default deadlines. "A few hundred ms" of queueing on an exhausted pool
// already means the tier below is saturated or stalled; dial and op bounds
// are generous enough that only a genuinely wedged peer hits them.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultOpTimeout   = 10 * time.Second
	DefaultWaitTimeout = 500 * time.Millisecond
)

// Timeouts bounds the three ways a transport client can block on a slow or
// stalled peer: establishing a connection, one request/response round trip
// on it, and waiting for a pooled connection to free up. The zero value
// selects the package defaults; a negative field disables that bound.
// Every transport client in the stack (sqldb/wire, ajp, rmi) accepts one.
type Timeouts struct {
	Dial time.Duration
	Op   time.Duration
	Wait time.Duration
}

// WithDefaults resolves zero fields to the package defaults and negative
// fields to "no bound" (0).
func (t Timeouts) WithDefaults() Timeouts {
	norm := func(d, def time.Duration) time.Duration {
		if d == 0 {
			return def
		}
		if d < 0 {
			return 0
		}
		return d
	}
	return Timeouts{
		Dial: norm(t.Dial, DefaultDialTimeout),
		Op:   norm(t.Op, DefaultOpTimeout),
		Wait: norm(t.Wait, DefaultWaitTimeout),
	}
}

// IsTimeout reports whether err is a deadline expiry — a read/write that
// outlived its per-operation deadline, or a dial that outlived its dial
// timeout. Timeouts are transport errors (the connection's stream state is
// unknowable), but callers can distinguish them for telemetry.
func IsTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, ErrWaitTimeout) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Config configures a Pool.
type Config[T any] struct {
	// Name labels the pool in Stats (e.g. "servlet->db").
	Name string
	// Dial opens one connection. It is called lazily, only when a borrower
	// finds no idle connection and capacity remains.
	Dial func() (T, error)
	// Destroy releases one connection (e.g. closes its socket). nil is a
	// no-op, for pooled values that need no cleanup.
	Destroy func(T)
	// Size caps concurrently open connections (default 1).
	Size int
	// WaitTimeout bounds how long Get blocks on an exhausted pool before
	// failing with ErrWaitTimeout (0: DefaultWaitTimeout; negative: wait
	// forever, the pre-deadline behavior).
	WaitTimeout time.Duration
}

// Pool is a fixed-capacity lazy connection pool, safe for concurrent use.
//
// Capacity is a token semaphore: a borrower first acquires a permit (the
// blocking point when the pool is saturated), then takes an idle
// connection or dials a fresh one. Because a broken Put returns the
// permit after destroying the connection, discards can never strand a
// queued borrower — it wakes and dials a replacement.
type Pool[T any] struct {
	name    string
	dial    func() (T, error)
	destroy func(T)
	limit   int

	waitTimeout time.Duration // 0: wait forever

	permits chan struct{} // capacity tokens; blocked receivers queue FIFO
	done    chan struct{} // closed by Close to release waiters

	mu     sync.Mutex
	idle   []T // FIFO: borrow from the front, return to the back
	opened int
	closed bool

	dials        atomic.Int64
	gets         atomic.Int64
	waits        atomic.Int64
	waitNanos    atomic.Int64
	discards     atomic.Int64
	retries      atomic.Int64
	waitTimeouts atomic.Int64
	opTimeouts   atomic.Int64
	timeoutNanos atomic.Int64
	borrow       stats.Histogram
}

// New creates a pool.
func New[T any](cfg Config[T]) *Pool[T] {
	if cfg.Dial == nil {
		panic("pool: nil Dial")
	}
	size := cfg.Size
	if size <= 0 {
		size = 1
	}
	waitTimeout := cfg.WaitTimeout
	if waitTimeout == 0 {
		waitTimeout = DefaultWaitTimeout
	} else if waitTimeout < 0 {
		waitTimeout = 0
	}
	p := &Pool[T]{
		name:        cfg.Name,
		dial:        cfg.Dial,
		destroy:     cfg.Destroy,
		limit:       size,
		waitTimeout: waitTimeout,
		permits:     make(chan struct{}, size),
		done:        make(chan struct{}),
	}
	for i := 0; i < size; i++ {
		p.permits <- struct{}{}
	}
	return p
}

// Get borrows a connection, dialing one if none is idle and capacity
// remains. It blocks while the pool is exhausted and fails with ErrClosed
// once the pool closes.
func (p *Pool[T]) Get() (T, error) {
	var zero T
	p.gets.Add(1)
	start := time.Now()
	select {
	case <-p.permits:
	default:
		p.waits.Add(1)
		if p.waitTimeout > 0 {
			timer := time.NewTimer(p.waitTimeout)
			select {
			case <-p.permits:
				timer.Stop()
				p.waitNanos.Add(time.Since(start).Nanoseconds())
			case <-p.done:
				timer.Stop()
				return zero, ErrClosed
			case <-timer.C:
				// The whole pool spent the deadline borrowed — saturation
				// (or a stalled peer holding every connection). The time
				// spent queueing still counts toward the saturation signal.
				p.waitTimeouts.Add(1)
				p.waitNanos.Add(time.Since(start).Nanoseconds())
				return zero, ErrWaitTimeout
			}
		} else {
			select {
			case <-p.permits:
				p.waitNanos.Add(time.Since(start).Nanoseconds())
			case <-p.done:
				return zero, ErrClosed
			}
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.releasePermit()
		return zero, ErrClosed
	}
	if len(p.idle) > 0 {
		// Shift down rather than reslice, so Put's append reuses the array.
		v := p.idle[0]
		n := copy(p.idle, p.idle[1:])
		p.idle[n] = zero
		p.idle = p.idle[:n]
		p.mu.Unlock()
		p.borrow.Record(time.Since(start))
		return v, nil
	}
	p.opened++
	p.mu.Unlock()
	p.dials.Add(1)
	v, err := p.dial()
	if err != nil {
		p.mu.Lock()
		p.opened--
		p.mu.Unlock()
		p.releasePermit()
		return zero, err
	}
	p.borrow.Record(time.Since(start))
	return v, nil
}

// Put returns a borrowed connection. Pass broken=true after a transport
// error: the connection is destroyed and its capacity reclaimed, so a
// queued borrower dials a fresh one.
func (p *Pool[T]) Put(v T, broken bool) {
	p.mu.Lock()
	if broken || p.closed {
		p.opened--
		p.mu.Unlock()
		if broken {
			p.discards.Add(1)
		}
		p.doDestroy(v)
	} else {
		p.idle = append(p.idle, v)
		p.mu.Unlock()
	}
	p.releasePermit()
}

// releasePermit returns one capacity token. The send never blocks:
// permits released never exceed permits acquired.
func (p *Pool[T]) releasePermit() {
	select {
	case p.permits <- struct{}{}:
	default:
	}
}

func (p *Pool[T]) doDestroy(v T) {
	if p.destroy != nil {
		p.destroy(v)
	}
}

// Do borrows a connection, runs fn on it, and returns it — discarded when
// fn's error is transport-level per isBroken (nil means every error is).
// With retry true, a transport failure is retried once, immediately, on a
// fresh connection: a stale pooled connection the peer dropped while idle is
// certain to fail and certain to be fixed by redialing. A second failure
// means the peer itself is suspect, and it surfaces.
//
// Deadline expiries are never retried, even with retry true: a round trip
// that outlived its op deadline may have been fully delivered to a
// merely-slow peer and still be executing, so re-sending it on a fresh
// connection would duplicate its side effects (a POST through AJP, an RMI
// call). Only failures that prove the request went nowhere — a stale
// connection's reset or EOF — are safe to absorb with a retry; a timeout
// surfaces immediately and the caller decides (eject, fail over, error).
func (p *Pool[T]) Do(retry bool, isBroken func(error) bool, fn func(T) error) error {
	var prev error
	for attempt := 0; ; attempt++ {
		v, err := p.Get()
		if err != nil {
			if prev != nil {
				return errors.Join(err, prev)
			}
			return err
		}
		opStart := time.Now()
		err = fn(v)
		if err == nil || (isBroken != nil && !isBroken(err)) {
			p.Put(v, false)
			return err
		}
		p.Put(v, true)
		if IsTimeout(err) {
			p.opTimeouts.Add(1)
			p.timeoutNanos.Add(time.Since(opStart).Nanoseconds())
			return err // possibly delivered — retrying could double-apply
		}
		if !retry || attempt >= 1 {
			return err
		}
		prev = err
		p.retries.Add(1)
		p.Reset() // the idle connections are as stale: the retry dials fresh
	}
}

// Reset destroys the idle connections without closing the pool: borrowers
// keep working and dial fresh. The cluster uses it when a replica rejoins
// after its server restarted — every idle connection is stale by then —
// and Do before its retry, for the same reason.
func (p *Pool[T]) Reset() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.opened -= len(idle)
	p.mu.Unlock()
	for _, v := range idle {
		p.doDestroy(v)
	}
}

// Close destroys idle connections and marks the pool closed: blocked
// borrowers fail with ErrClosed, and borrowed connections are destroyed
// as they are returned. Safe to call concurrently with Get/Put and more
// than once.
func (p *Pool[T]) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.opened -= len(idle)
	p.mu.Unlock()
	close(p.done)
	for _, v := range idle {
		p.doDestroy(v)
	}
}

// Stats is a point-in-time snapshot of a pool's gauges and counters.
// Counter fields are cumulative: internal/telemetry's Add sums several
// pools' snapshots and its Snapshot.Delta windows two of one pool.
type Stats struct {
	Name     string      `json:"name,omitempty"`
	Capacity stats.Gauge `json:"capacity"`
	// InUse / Idle are gauges at snapshot time.
	InUse stats.Gauge `json:"in_use"`
	Idle  stats.Gauge `json:"idle"`
	// Dials counts connections opened; Gets counts borrows; Waits counts
	// borrows that blocked on an exhausted pool; WaitNanos is the
	// cumulative time those borrowers spent blocked — the saturation
	// signal; Discards counts broken connections destroyed; Retries
	// counts stale-connection retries.
	Dials     int64 `json:"dials"`
	Gets      int64 `json:"gets"`
	Waits     int64 `json:"waits"`
	WaitNanos int64 `json:"wait_nanos"`
	Discards  int64 `json:"discards"`
	Retries   int64 `json:"retries"`
	// WaitTimeouts counts borrows that gave up after the wait deadline;
	// OpTimeouts counts Do round trips that failed on an expired
	// read/write deadline, with TimeoutNanos the time those round trips
	// burned before expiring.
	WaitTimeouts int64 `json:"wait_timeouts,omitempty"`
	OpTimeouts   int64 `json:"op_timeouts,omitempty"`
	TimeoutNanos int64 `json:"timeout_nanos,omitempty"`
	// Borrow is the latency of every successful Get, from call to return.
	Borrow stats.Histogram `json:"borrow"`
}

// InUse returns the number of borrowed connections right now — the cheap
// instantaneous load gauge the cluster read router balances on (the full
// Stats snapshot copies the latency histogram, too heavy for a hot path).
func (p *Pool[T]) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.opened - len(p.idle)
}

// Stats snapshots the pool.
func (p *Pool[T]) Stats() Stats {
	p.mu.Lock()
	idle, opened := len(p.idle), p.opened
	p.mu.Unlock()
	return Stats{
		Name:         p.name,
		Capacity:     stats.Gauge(p.limit),
		InUse:        stats.Gauge(opened - idle),
		Idle:         stats.Gauge(idle),
		Dials:        p.dials.Load(),
		Gets:         p.gets.Load(),
		Waits:        p.waits.Load(),
		WaitNanos:    p.waitNanos.Load(),
		Discards:     p.discards.Load(),
		Retries:      p.retries.Load(),
		WaitTimeouts: p.waitTimeouts.Load(),
		OpTimeouts:   p.opTimeouts.Load(),
		TimeoutNanos: p.timeoutNanos.Load(),
		Borrow:       p.borrow.Snapshot(),
	}
}

// Utilization returns InUse/Capacity in [0,1].
func (s Stats) Utilization() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.InUse) / float64(s.Capacity)
}
