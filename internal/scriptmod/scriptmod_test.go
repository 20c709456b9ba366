package scriptmod

import (
	"testing"

	"repro/internal/httpd"
	"repro/internal/servlet"
)

func TestMountDispatchesInProcess(t *testing.T) {
	c := servlet.NewContainer(servlet.Config{})
	c.Register("/app/", func(_ *servlet.Context, req *httpd.Request) (*httpd.Response, error) {
		r := httpd.NewResponse()
		r.WriteString("in-process:" + req.Path)
		return r, nil
	})
	m := Mount(c)
	defer m.Close()
	resp, err := m.ServeHTTP(&httpd.Request{Method: "GET", Path: "/app/x",
		Header: httpd.Header{}, Query: map[string][]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "in-process:/app/x" {
		t.Fatalf("body %q", resp.Body)
	}
	if n := m.Container().Telemetry().Requests; n != 1 {
		t.Fatalf("container counted %d requests, want 1", n)
	}
}
