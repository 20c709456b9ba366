package servlet

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/httpd"
)

// twoManagers builds the replicated-tier session setup: two containers'
// managers with distinct routes sharing one store.
func twoManagers() (*SessionManager, *SessionManager, *MemStore) {
	store := NewMemStore()
	m1, m2 := NewSessionManager(), NewSessionManager()
	m1.route, m1.store = "a0", store
	m2.route, m2.store = "a1", store
	return m1, m2, store
}

func cookieReq(id string) *httpd.Request {
	req := &httpd.Request{Method: "GET", Path: "/", Header: httpd.Header{}}
	if id != "" {
		req.Header.Set("Cookie", "JSESSIONID="+id)
	}
	return req
}

func TestEnsureAppendsRouteSuffix(t *testing.T) {
	m1, _, _ := twoManagers()
	resp := httpd.NewResponse()
	s := m1.Ensure(cookieReq(""), resp)
	if want := s.ID; want[len(want)-3:] != ".a0" {
		t.Fatalf("session id %q lacks route suffix", s.ID)
	}
	if c := resp.Header.Get("Set-Cookie"); c != "JSESSIONID="+s.ID+"; Path=/" {
		t.Fatalf("cookie %q", c)
	}
}

func TestWriteThroughRestoresOnOtherBackend(t *testing.T) {
	m1, m2, store := twoManagers()
	resp := httpd.NewResponse()
	s := m1.Ensure(cookieReq(""), resp)
	s.Set("user", "alice")
	s.Set("visits", 3)
	if store.Len() != 1 {
		t.Fatalf("store has %d sessions, want 1", store.Len())
	}

	// Backend a0 dies; the balancer fails the session over to a1, which
	// has never seen it and restores it from the store.
	s2 := m2.Lookup(cookieReq(s.ID))
	if s2 == nil {
		t.Fatal("survivor could not restore the session")
	}
	if v, _ := s2.Get("user"); v != "alice" {
		t.Fatalf("user = %v", v)
	}
	if v, _ := s2.Get("visits"); v != 3 {
		t.Fatalf("visits = %v", v)
	}
}

func TestStaleLocalCopyRefreshes(t *testing.T) {
	m1, m2, _ := twoManagers()
	resp := httpd.NewResponse()
	s := m1.Ensure(cookieReq(""), resp)
	s.Set("count", 1)

	// The session serves on the other backend for a while...
	s2 := m2.Lookup(cookieReq(s.ID))
	s2.Set("count", 2)

	// ...and when it comes back, the first backend's copy must reflect it.
	s1 := m1.Lookup(cookieReq(s.ID))
	if v, _ := s1.Get("count"); v != 2 {
		t.Fatalf("count = %v, want 2 (stale copy served)", v)
	}
}

// TestInPlaceMutationDoesNotReplicate pins the Set contract: the store holds
// what the last Set published, so a value mutated in place stays local until
// it is Set again — the rule Tomcat's session replication puts on
// setAttribute.
func TestInPlaceMutationDoesNotReplicate(t *testing.T) {
	m1, m2, _ := twoManagers()
	s := m1.Ensure(cookieReq(""), httpd.NewResponse())
	s.Set("cart", []int{1})
	v, _ := s.Get("cart")
	v.([]int)[0] = 2
	if got, _ := m2.Lookup(cookieReq(s.ID)).Get("cart"); got.([]int)[0] != 1 {
		t.Fatalf("other backend sees %v before Set, want [1]", got)
	}
	s.Set("cart", v)
	if got, _ := m2.Lookup(cookieReq(s.ID)).Get("cart"); got.([]int)[0] != 2 {
		t.Fatalf("other backend sees %v after Set, want [2]", got)
	}
}

func TestNoStoreKeepsLocalSemantics(t *testing.T) {
	m := NewSessionManager()
	resp := httpd.NewResponse()
	s := m.Ensure(cookieReq(""), resp)
	if s.ID != "s00000001" {
		t.Fatalf("bare id %q changed", s.ID)
	}
	s.Set("k", "v")
	if got := m.Lookup(cookieReq(s.ID)); got != s {
		t.Fatal("local lookup broken")
	}
}

func TestConcurrentSessionTrafficAcrossBackends(t *testing.T) {
	// -race exercise: many sessions bouncing between two managers.
	m1, m2, _ := twoManagers()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := httpd.NewResponse()
			s := m1.Ensure(cookieReq(""), resp)
			for i := 0; i < 50; i++ {
				s.Set("n", i)
				if other := m2.Lookup(cookieReq(s.ID)); other != nil {
					other.Set("peer", fmt.Sprintf("w%d", w))
				}
				s = m1.Lookup(cookieReq(s.ID))
			}
		}()
	}
	wg.Wait()
}
