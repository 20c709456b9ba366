package pool

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeConn stands in for a transport connection.
type fakeConn struct {
	id     int
	closed atomic.Bool
}

// harness builds a pool of fakeConns, tracking dials and destroys.
type harness struct {
	dials    atomic.Int64
	destroys atomic.Int64
	dialErr  atomic.Bool
}

func (h *harness) pool(size int) *Pool[*fakeConn] {
	return New(Config[*fakeConn]{
		Name: "test",
		Dial: func() (*fakeConn, error) {
			if h.dialErr.Load() {
				return nil, errors.New("dial refused")
			}
			return &fakeConn{id: int(h.dials.Add(1))}, nil
		},
		Destroy: func(c *fakeConn) {
			c.closed.Store(true)
			h.destroys.Add(1)
		},
		Size: size,
	})
}

func TestGetPutReuses(t *testing.T) {
	h := &harness{}
	p := h.pool(4)
	defer p.Close()
	c, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	p.Put(c, false)
	c2, err := p.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Fatalf("expected pooled conn back, got %v", c2)
	}
	p.Put(c2, false)
	if n := h.dials.Load(); n != 1 {
		t.Fatalf("dials = %d, want 1", n)
	}
	s := p.Stats()
	if s.Gets != 2 || s.Dials != 1 || s.Idle != 1 || s.InUse != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFIFOBorrowOrder(t *testing.T) {
	h := &harness{}
	p := h.pool(3)
	defer p.Close()
	a, _ := p.Get()
	b, _ := p.Get()
	c, _ := p.Get()
	p.Put(a, false)
	p.Put(b, false)
	p.Put(c, false)
	for _, want := range []*fakeConn{a, b, c} {
		got, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("borrow order: got conn %d, want %d", got.id, want.id)
		}
	}
}

func TestExhaustionBlocksAndUnblocks(t *testing.T) {
	h := &harness{}
	p := h.pool(2)
	defer p.Close()
	a, _ := p.Get()
	b, _ := p.Get()

	acquired := make(chan *fakeConn)
	go func() {
		c, err := p.Get() // must block until a Put
		if err != nil {
			t.Errorf("blocked get: %v", err)
		}
		acquired <- c
	}()
	select {
	case <-acquired:
		t.Fatal("third Get should have blocked on a size-2 pool")
	case <-time.After(20 * time.Millisecond):
	}
	p.Put(a, false)
	select {
	case c := <-acquired:
		if c != a {
			t.Fatalf("unblocked with conn %d, want returned conn %d", c.id, a.id)
		}
	case <-time.After(time.Second):
		t.Fatal("Get did not unblock after Put")
	}
	p.Put(b, false)
	s := p.Stats()
	if s.Waits != 1 || s.WaitNanos <= 0 {
		t.Fatalf("stats should record the blocked borrow: %+v", s)
	}
}

// TestBrokenDiscardReclaimsCapacity also covers the starvation case the
// pre-refactor pools had: a borrower queued on an exhausted pool must wake
// when a broken return reclaims capacity, and dial a replacement.
func TestBrokenDiscardReclaimsCapacity(t *testing.T) {
	h := &harness{}
	p := h.pool(1)
	defer p.Close()
	a, _ := p.Get()

	acquired := make(chan *fakeConn)
	go func() {
		c, err := p.Get()
		if err != nil {
			t.Errorf("blocked get: %v", err)
		}
		acquired <- c
	}()
	time.Sleep(10 * time.Millisecond)
	p.Put(a, true) // broken: destroyed, capacity reclaimed
	select {
	case c := <-acquired:
		if c == a {
			t.Fatal("borrower got the discarded conn back")
		}
		if !a.closed.Load() {
			t.Fatal("broken conn was not destroyed")
		}
		p.Put(c, false)
	case <-time.After(time.Second):
		t.Fatal("discard did not unblock the queued borrower")
	}
	s := p.Stats()
	if s.Discards != 1 || s.Dials != 2 {
		t.Fatalf("stats = %+v, want 1 discard and 2 dials", s)
	}
}

func TestDialErrorFreesCapacity(t *testing.T) {
	h := &harness{}
	p := h.pool(1)
	defer p.Close()
	h.dialErr.Store(true)
	if _, err := p.Get(); err == nil {
		t.Fatal("expected dial error")
	}
	h.dialErr.Store(false)
	done := make(chan error, 1)
	go func() {
		c, err := p.Get()
		if err == nil {
			p.Put(c, false)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("get after failed dial: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("failed dial leaked its capacity permit")
	}
}

func TestCloseWhileBorrowed(t *testing.T) {
	h := &harness{}
	p := h.pool(2)
	a, _ := p.Get()
	b, _ := p.Get()
	p.Put(b, false) // idle at close time
	p.Close()
	if !b.closed.Load() {
		t.Fatal("idle conn not destroyed at Close")
	}
	if a.closed.Load() {
		t.Fatal("borrowed conn destroyed while still out")
	}
	p.Put(a, false)
	if !a.closed.Load() {
		t.Fatal("conn returned after Close not destroyed")
	}
	if _, err := p.Get(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	if n := h.destroys.Load(); n != 2 {
		t.Fatalf("destroys = %d, want 2", n)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	h := &harness{}
	p := h.pool(1)
	c, _ := p.Get()
	errc := make(chan error)
	go func() {
		_, err := p.Get()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiter got %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release the blocked borrower")
	}
	p.Put(c, false)
}

// TestClosePutRace is the regression test for the pre-refactor wire.Pool
// bug: Put's channel send could race Close's close(chan) and panic. Run
// with -race.
func TestClosePutRace(t *testing.T) {
	for i := 0; i < 200; i++ {
		h := &harness{}
		p := h.pool(4)
		var conns []*fakeConn
		for j := 0; j < 4; j++ {
			c, err := p.Get()
			if err != nil {
				t.Fatal(err)
			}
			conns = append(conns, c)
		}
		var wg sync.WaitGroup
		wg.Add(len(conns) + 1)
		for _, c := range conns {
			c := c
			go func() {
				defer wg.Done()
				p.Put(c, false)
			}()
		}
		go func() {
			defer wg.Done()
			p.Close()
		}()
		wg.Wait()
		// Every conn must end destroyed: either drained by Close or
		// destroyed by a post-close Put.
		for _, c := range conns {
			if !c.closed.Load() {
				t.Fatalf("iteration %d: conn %d leaked", i, c.id)
			}
		}
	}
}

func TestConcurrentGetPut(t *testing.T) {
	h := &harness{}
	p := h.pool(8)
	defer p.Close()
	var wg sync.WaitGroup
	var ops atomic.Int64
	for g := 0; g < 32; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := p.Get()
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				ops.Add(1)
				p.Put(c, (g+i)%17 == 0)
			}
		}()
	}
	wg.Wait()
	if ops.Load() != 32*50 {
		t.Fatalf("ops = %d", ops.Load())
	}
	s := p.Stats()
	if s.Gets != 32*50 || s.Borrow.Count() != s.Gets {
		t.Fatalf("gets = %d, borrows timed = %d, want %d", s.Gets, s.Borrow.Count(), 32*50)
	}
	if s.InUse != 0 {
		t.Fatalf("in_use = %d after all puts", s.InUse)
	}
	if s.Dials-s.Discards != int64(s.Idle) {
		t.Fatalf("conn accounting: dials=%d discards=%d idle=%d", s.Dials, s.Discards, s.Idle)
	}
}

func TestDoRetriesOnceOnBrokenConn(t *testing.T) {
	h := &harness{}
	p := h.pool(2)
	defer p.Close()
	attempts := 0
	err := p.Do(true, nil, func(c *fakeConn) error {
		attempts++
		if attempts == 1 {
			return errors.New("stale conn")
		}
		return nil
	})
	if err != nil || attempts != 2 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
	s := p.Stats()
	if s.Retries != 1 || s.Discards != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestDoRetryDialsFresh: after a peer restart every idle connection is
// stale, not just the one that failed — the retry must run on a freshly
// dialed connection, not on the next idle one.
func TestDoRetryDialsFresh(t *testing.T) {
	h := &harness{}
	p := h.pool(4)
	defer p.Close()
	a, _ := p.Get()
	b, _ := p.Get()
	p.Put(a, false)
	p.Put(b, false) // two idle connections, both dialed before the restart
	var used []int
	err := p.Do(true, nil, func(c *fakeConn) error {
		used = append(used, c.id)
		if c.id <= 2 {
			return errors.New("connection reset by peer")
		}
		return nil
	})
	if err != nil || len(used) != 2 || used[1] != 3 {
		t.Fatalf("err=%v attempts on conns %v, want the retry on fresh conn 3", err, used)
	}
	if !b.closed.Load() {
		t.Fatal("the other stale idle conn was not destroyed")
	}
	if s := p.Stats(); s.Retries != 1 || s.Dials != 3 || s.Idle != 1 {
		t.Fatalf("stats = %+v, want 1 retry / 3 dials / 1 idle", s)
	}
}

func TestGetWaitTimeout(t *testing.T) {
	h := &harness{}
	p := New(Config[*fakeConn]{
		Name:        "test",
		Dial:        func() (*fakeConn, error) { return &fakeConn{id: int(h.dials.Add(1))}, nil },
		Size:        1,
		WaitTimeout: 30 * time.Millisecond,
	})
	defer p.Close()
	a, _ := p.Get()
	start := time.Now()
	_, err := p.Get()
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("Get on exhausted pool = %v, want ErrWaitTimeout", err)
	}
	if !IsTimeout(err) {
		t.Fatal("ErrWaitTimeout must classify as a timeout")
	}
	if d := time.Since(start); d < 25*time.Millisecond || d > 5*time.Second {
		t.Fatalf("wait timeout fired after %v, want ~30ms", d)
	}
	s := p.Stats()
	if s.WaitTimeouts != 1 || s.WaitNanos <= 0 {
		t.Fatalf("stats should count the timed-out wait: %+v", s)
	}
	p.Put(a, false)
	if c, err := p.Get(); err != nil {
		t.Fatalf("Get after a freed conn: %v", err)
	} else {
		p.Put(c, false)
	}
}

func TestGetWaitTimeoutDisabled(t *testing.T) {
	h := &harness{}
	p := New(Config[*fakeConn]{
		Name:        "test",
		Dial:        func() (*fakeConn, error) { return &fakeConn{id: int(h.dials.Add(1))}, nil },
		Size:        1,
		WaitTimeout: -1,
	})
	defer p.Close()
	a, _ := p.Get()
	acquired := make(chan *fakeConn)
	go func() {
		c, err := p.Get()
		if err != nil {
			t.Errorf("blocked get: %v", err)
		}
		acquired <- c
	}()
	select {
	case <-acquired:
		t.Fatal("Get should still be blocked")
	case <-time.After(20 * time.Millisecond):
	}
	p.Put(a, false)
	c := <-acquired
	p.Put(c, false)
}

// TestDoSurfacesSecondFailure: the stale-connection retry is the only one —
// a peer that fails the fresh connection too is down, and the error surfaces
// after exactly two attempts.
func TestDoSurfacesSecondFailure(t *testing.T) {
	h := &harness{}
	p := h.pool(2)
	defer p.Close()
	attempts := 0
	failure := errors.New("transport down")
	err := p.Do(true, nil, func(c *fakeConn) error {
		attempts++
		return failure
	})
	if !errors.Is(err, failure) || attempts != 2 {
		t.Fatalf("err=%v attempts=%d, want the transport error after one retry", err, attempts)
	}
	if s := p.Stats(); s.Retries != 1 || s.Discards != 2 {
		t.Fatalf("stats = %+v, want 1 retry / 2 discards", s)
	}
}

// TestDoNeverRetriesTimeouts: a round trip that outlived its deadline may
// have been fully delivered to a slow peer and still be executing, so
// retrying it would duplicate side effects (a non-idempotent POST through
// AJP, an RMI call) — Do must surface the timeout immediately even with
// retry enabled.
func TestDoNeverRetriesTimeouts(t *testing.T) {
	h := &harness{}
	p := h.pool(2)
	defer p.Close()
	attempts := 0
	err := p.Do(true, nil, func(c *fakeConn) error {
		attempts++
		return os.ErrDeadlineExceeded
	})
	if !errors.Is(err, os.ErrDeadlineExceeded) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d, want the timeout surfaced without a retry", err, attempts)
	}
	s := p.Stats()
	if s.Retries != 0 || s.OpTimeouts != 1 || s.Discards != 1 {
		t.Fatalf("stats = %+v, want 0 retries / 1 op timeout / 1 discard", s)
	}
}

func TestTimeoutsWithDefaults(t *testing.T) {
	got := Timeouts{}.WithDefaults()
	want := Timeouts{Dial: DefaultDialTimeout, Op: DefaultOpTimeout, Wait: DefaultWaitTimeout}
	if got != want {
		t.Fatalf("zero Timeouts resolved to %+v, want defaults", got)
	}
	got = Timeouts{Dial: -1, Op: time.Second, Wait: -1}.WithDefaults()
	want = Timeouts{Dial: 0, Op: time.Second, Wait: 0}
	if got != want {
		t.Fatalf("got %+v, want negatives disabled and explicit values kept", got)
	}
}

func TestDoKeepsConnOnApplicationError(t *testing.T) {
	h := &harness{}
	p := h.pool(2)
	defer p.Close()
	appErr := errors.New("application error")
	attempts := 0
	err := p.Do(true, func(err error) bool { return !errors.Is(err, appErr) },
		func(c *fakeConn) error {
			attempts++
			return appErr
		})
	if !errors.Is(err, appErr) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d, want application error without retry", err, attempts)
	}
	s := p.Stats()
	if s.Discards != 0 || s.Idle != 1 {
		t.Fatalf("application error should keep the conn pooled: %+v", s)
	}
}

// slowDialPool returns a pool whose dial sleeps slowDial while slow is set,
// so a borrow that dials takes at least that long.
const slowDial = 10 * time.Millisecond

func slowDialPool(slow *atomic.Bool) *Pool[int] {
	return New(Config[int]{Name: "slow", Dial: func() (int, error) {
		if slow.Load() {
			time.Sleep(slowDial)
		}
		return 1, nil
	}})
}

// borrow runs n Get/Put cycles, returning the connection broken when
// discard is set so the next Get dials.
func borrow(t *testing.T, p *Pool[int], n int, discard bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, err := p.Get()
		if err != nil {
			t.Fatal(err)
		}
		p.Put(v, discard)
	}
}

// TestIdleGetPutAllocs: borrowing an idle connection and returning it
// allocates nothing — timing the borrow included.
func TestIdleGetPutAllocs(t *testing.T) {
	var slow atomic.Bool
	p := slowDialPool(&slow)
	defer p.Close()
	borrow(t, p, 1, false)
	if n := testing.AllocsPerRun(1000, func() { borrow(t, p, 1, false) }); n != 0 {
		t.Fatalf("idle Get/Put allocates %v times", n)
	}
}

// BenchmarkGetPut borrows and returns idle connections from parallel
// goroutines, the pool's hot path with its borrow timing.
func BenchmarkGetPut(b *testing.B) {
	p := New(Config[int]{Name: "bench", Dial: func() (int, error) { return 1, nil }, Size: 64})
	defer p.Close()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v, err := p.Get()
			if err != nil {
				b.Error(err)
				return
			}
			p.Put(v, false)
		}
	})
}
