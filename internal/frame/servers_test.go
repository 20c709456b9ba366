package frame_test

import (
	"net"
	"net/url"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ajp"
	"repro/internal/httpd"
	"repro/internal/httpd/httpclient"
	"repro/internal/rmi"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// gate holds a server's handler mid-request while armed, so a test can
// start a drain with a request in flight.
type gate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate { return &gate{entered: make(chan struct{}, 1), release: make(chan struct{})} }

func (g *gate) pass() {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
}

// running is one started server, behind what the four have in common.
type running struct {
	addr  string
	close func()
	drain func(grace time.Duration)
	// call makes one request through the protocol's own client on a fresh
	// connection and reports whether it was answered.
	call func() error
}

type Svc struct{ g *gate }

func (s *Svc) Do(args *int, reply *int) error { s.g.pass(); *reply = *args; return nil }

func page(g *gate) httpd.Handler {
	return httpd.HandlerFunc(func(*httpd.Request) (*httpd.Response, error) {
		g.pass()
		return httpd.NewResponse(), nil
	})
}

func listen(t *testing.T, l interface {
	Listen(string) (net.Addr, error)
}) string {
	t.Helper()
	a, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return a.String()
}

// servers starts each of the stack's four servers. The database's handler
// cannot be held mid-statement from outside, so it takes no gate
// (TestShutdownDrainsInFlight in sqldb/wire covers its in-flight drain).
var servers = []struct {
	name  string
	gated bool
	start func(t *testing.T, g *gate) running
}{
	{"httpd", true, func(t *testing.T, g *gate) running {
		s := httpd.NewServer(page(g), nil)
		addr := listen(t, s)
		return running{addr, func() { s.Close() }, s.Shutdown, func() error {
			c := httpclient.New(addr, 10*time.Second)
			defer c.Close()
			_, err := c.Get("/")
			return err
		}}
	}},
	{"ajp", true, func(t *testing.T, g *gate) running {
		l := ajp.NewListener(page(g))
		addr := listen(t, l)
		return running{addr, func() { l.Close() }, func(d time.Duration) { l.Drain(d) }, func() error {
			c := ajp.NewConnector(addr, 1)
			defer c.Close()
			_, err := c.ServeHTTP(&httpd.Request{Method: "GET", Path: "/", Query: url.Values{}, Header: httpd.Header{}})
			return err
		}}
	}},
	{"rmi", true, func(t *testing.T, g *gate) running {
		s := rmi.NewServer()
		if err := s.Register("Svc", &Svc{g}); err != nil {
			t.Fatal(err)
		}
		addr := listen(t, s)
		return running{addr, func() { s.Close() }, func(d time.Duration) { s.Drain(d) }, func() error {
			c := rmi.NewClient(addr, 1)
			defer c.Close()
			args, reply := 7, 0
			return c.Call("Svc.Do", &args, &reply)
		}}
	}},
	{"wire", false, func(t *testing.T, _ *gate) running {
		s := wire.NewServer(sqldb.New(), nil)
		addr := listen(t, s)
		return running{addr, func() { s.Close() }, s.Shutdown, func() error {
			c, err := wire.Dial(addr)
			if err != nil {
				return err
			}
			defer c.Close()
			_, err = c.Exec("CREATE TABLE IF NOT EXISTS t (k INT PRIMARY KEY)")
			return err
		}}
	}},
}

// TestServersCloseAndDrain runs the same two checks over every server, now
// that all four are a frame.Listener plus a serve: Close returns with idle
// client connections open and leaves no goroutine behind, and a request in
// flight when a drain starts is answered.
func TestServersCloseAndDrain(t *testing.T) {
	for _, sv := range servers {
		t.Run(sv.name+"/close", func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := sv.start(t, newGate())
			for i := 0; i < 3; i++ {
				c, err := net.Dial("tcp", r.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
			}
			// Connections are accepted in order: once this call is
			// answered, the three idle ones have their serve goroutines.
			if err := r.call(); err != nil {
				t.Fatal(err)
			}
			r.close()
			var after int
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if after = runtime.NumGoroutine(); after <= before || time.Now().After(deadline) {
					break
				}
			}
			if after > before {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines before Listen, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
		if !sv.gated {
			continue
		}
		t.Run(sv.name+"/drain", func(t *testing.T) {
			g := newGate()
			r := sv.start(t, g)
			g.armed.Store(true)
			answered := make(chan error, 1)
			go func() { answered <- r.call() }()
			<-g.entered
			drained := make(chan struct{})
			go func() { r.drain(30 * time.Second); close(drained) }()
			// The drain has begun once the port stops accepting.
			for {
				c, err := net.Dial("tcp", r.addr)
				if err != nil {
					break
				}
				c.Close()
				time.Sleep(time.Millisecond)
			}
			close(g.release)
			if err := <-answered; err != nil {
				t.Fatalf("request in flight when the drain started: %v", err)
			}
			select {
			case <-drained:
			case <-time.After(10 * time.Second):
				t.Fatal("drain did not finish after its last request was answered")
			}
		})
	}
}
