package arch

import "testing"

func TestArchString(t *testing.T) {
	want := map[Arch]string{
		PHP:                  "WsPhp-DB",
		Servlet:              "WsServlet-DB",
		ServletSync:          "WsServlet-DB(sync)",
		ServletDedicated:     "Ws-Servlet-DB",
		ServletDedicatedSync: "Ws-Servlet-DB(sync)",
		EJB:                  "Ws-Servlet-EJB-DB",
	}
	for a, w := range want {
		if a.String() != w {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), w)
		}
	}
	if len(Archs()) != 6 {
		t.Fatalf("Archs() = %d entries, want 6", len(Archs()))
	}
}

func TestArchPredicates(t *testing.T) {
	if !ServletSync.EngineSync() || !ServletDedicatedSync.EngineSync() {
		t.Error("sync variants must report EngineSync")
	}
	if PHP.EngineSync() || EJB.EngineSync() {
		t.Error("non-sync variants must not report EngineSync")
	}
	for _, a := range []Arch{ServletDedicated, ServletDedicatedSync, EJB} {
		if !a.DedicatedEngine() {
			t.Errorf("%v must report DedicatedEngine", a)
		}
	}
	if PHP.DedicatedEngine() || Servlet.DedicatedEngine() {
		t.Error("co-located variants must not report DedicatedEngine")
	}
}
