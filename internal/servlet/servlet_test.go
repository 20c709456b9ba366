package servlet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ajp"
	"repro/internal/cluster"
	"repro/internal/httpd"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

type countingServlet struct {
	mu       sync.Mutex
	inits    int
	destroys int
	served   int
}

func (c *countingServlet) Init(*Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inits++
	return nil
}

func (c *countingServlet) Service(_ *Context, req *httpd.Request) (*httpd.Response, error) {
	c.mu.Lock()
	c.served++
	c.mu.Unlock()
	r := httpd.NewResponse()
	r.WriteString("ok:" + req.Path)
	return r, nil
}

func (c *countingServlet) Destroy() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.destroys++
}

func TestContainerLifecycle(t *testing.T) {
	c := NewContainer(Config{})
	cs := &countingServlet{}
	c.Register("/app/", cs)
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn := ajp.NewConnector(addr.String(), 2)
	defer conn.Close()
	for i := 0; i < 3; i++ {
		resp, err := conn.ServeHTTP(&httpd.Request{
			Method: "GET", Path: fmt.Sprintf("/app/x%d", i),
			Header: httpd.Header{}, Query: map[string][]string{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("ok:/app/x%d", i); string(resp.Body) != want {
			t.Fatalf("body %q, want %q", resp.Body, want)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.inits != 1 || cs.destroys != 1 || cs.served != 3 {
		t.Fatalf("lifecycle counts: %+v", cs)
	}
}

func TestContainerWithDatabase(t *testing.T) {
	db := sqldb.New()
	sess := db.NewSession()
	if _, err := sess.Exec("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO t (id, v) VALUES (1, 'hi')"); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	dbsrv := wire.NewServer(db, nil)
	dbAddr, err := dbsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbsrv.Close()

	c := NewContainer(Config{DB: cluster.Config{DSN: dbAddr.String(), PoolSize: 4}})
	c.Register("/q", Func(func(ctx *Context, req *httpd.Request) (*httpd.Response, error) {
		res, err := ctx.DB.Exec("SELECT v FROM t WHERE id = ?", sqldb.Int(1))
		if err != nil {
			return nil, err
		}
		r := httpd.NewResponse()
		r.WriteString(res.Rows[0][0].AsString())
		return r, nil
	}))
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := ajp.NewConnector(addr.String(), 2)
	defer conn.Close()
	resp, err := conn.ServeHTTP(&httpd.Request{Method: "GET", Path: "/q",
		Header: httpd.Header{}, Query: map[string][]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "hi" {
		t.Fatalf("body %q", resp.Body)
	}
}

func TestConnectorConcurrency(t *testing.T) {
	c := NewContainer(Config{})
	c.Register("/", Func(func(_ *Context, req *httpd.Request) (*httpd.Response, error) {
		r := httpd.NewResponse()
		r.WriteString(req.Query.Get("i"))
		return r, nil
	}))
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := ajp.NewConnector(addr.String(), 4)
	defer conn.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &httpd.Request{Method: "GET", Path: "/",
				Header: httpd.Header{},
				Query:  map[string][]string{"i": {fmt.Sprint(i)}}}
			resp, err := conn.ServeHTTP(req)
			if err != nil {
				t.Errorf("rt: %v", err)
				return
			}
			if string(resp.Body) != fmt.Sprint(i) {
				t.Errorf("mismatched response: got %q want %d", resp.Body, i)
			}
		}()
	}
	wg.Wait()
}

func TestLockManagerExclusion(t *testing.T) {
	lm := NewLockManager()
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rel := lm.Acquire([]TableLock{{Table: "items", Write: true}})
				counter++
				rel()
			}
		}()
	}
	wg.Wait()
	if counter != 1600 {
		t.Fatalf("counter %d, want 1600 (lost updates)", counter)
	}
}

func TestLockManagerOrderedMultiAcquire(t *testing.T) {
	lm := NewLockManager()
	var wg sync.WaitGroup
	stop := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 8; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Opposite textual orders must not deadlock.
				set := []TableLock{{Table: "a", Write: true}, {Table: "b", Write: true}}
				if i%2 == 1 {
					set[0], set[1] = set[1], set[0]
				}
				for j := 0; j < 200; j++ {
					rel := lm.Acquire(set)
					rel()
				}
			}()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-stop:
		t.Fatal("deadlock in ordered multi-acquire")
	}
}

func TestLockManagerSharedReaders(t *testing.T) {
	lm := NewLockManager()
	r1 := lm.Acquire([]TableLock{{Table: "t"}})
	r2 := lm.Acquire([]TableLock{{Table: "t"}})
	r1()
	r2()
	// Duplicate entries merge to the strongest intent.
	rel := lm.Acquire([]TableLock{{Table: "t"}, {Table: "t", Write: true}})
	rel()
	rel() // double release is a no-op via sync.Once
}

func TestSessions(t *testing.T) {
	sm := NewSessionManager()
	req := &httpd.Request{Header: httpd.Header{}}
	resp := httpd.NewResponse()
	s := sm.Ensure(req, resp)
	if s == nil || sm.Len() != 1 {
		t.Fatal("session not created")
	}
	cookie := resp.Header.Get("Set-Cookie")
	if cookie == "" {
		t.Fatal("no Set-Cookie")
	}
	// Round-trip the cookie.
	req2 := &httpd.Request{Header: httpd.Header{}}
	req2.Header.Set("Cookie", "other=1; "+cookie[:len("JSESSIONID=")+9])
	s2 := sm.Lookup(req2)
	if s2 == nil || s2.ID != s.ID {
		t.Fatalf("lookup: %+v, want %q", s2, s.ID)
	}
	s.Set("cart", 42)
	if v, ok := s2.Get("cart"); !ok || v.(int) != 42 {
		t.Fatal("session attrs not shared")
	}
	sm.Expire(s.ID)
	if sm.Lookup(req2) != nil {
		t.Fatal("expired session still resolvable")
	}
}

func TestContextAttrs(t *testing.T) {
	ctx := &Context{}
	ctx.SetAttr("k", "v")
	if v, ok := ctx.Attr("k"); !ok || v.(string) != "v" {
		t.Fatal("attrs")
	}
	if _, ok := ctx.Attr("missing"); ok {
		t.Fatal("missing attr reported present")
	}
}

func TestRegisterAfterStartPanics(t *testing.T) {
	c := NewContainer(Config{})
	c.Register("/a", &countingServlet{})
	if _, err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Register("/b", &countingServlet{})
}
