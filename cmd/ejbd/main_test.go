package main

import "testing"

// TestRouteRequiresAJP: -route names the presentation servlets' sessions,
// which exist only with -ajp; alone it used to be silently ignored.
func TestRouteRequiresAJP(t *testing.T) {
	if err := checkRoute("a1", ""); err == nil {
		t.Error("-route without -ajp accepted")
	}
	for _, ok := range [][2]string{{"", ""}, {"", ":7009"}, {"a1", ":7009"}} {
		if err := checkRoute(ok[0], ok[1]); err != nil {
			t.Errorf("checkRoute(%q, %q): %v", ok[0], ok[1], err)
		}
	}
}
