// Package scriptmod mounts an application container inside the web-server
// process, the deployment model of mod_php in the paper's WsPhp-DB
// configuration (§2.1): the dynamic-content generator shares the web
// server's address space, so dispatch is a function call with no
// interprocess communication — the structural property that makes PHP
// cheaper per interaction than co-located servlets (§6.1) and at the same
// time pins it to the web server machine (§6.3).
package scriptmod

import (
	"repro/internal/httpd"
	"repro/internal/servlet"
)

// Module is an in-process dynamic-content module.
type Module struct {
	container *servlet.Container
}

// Mount returns the container as an in-process module. The container must
// not also be started on AJP.
func Mount(c *servlet.Container) *Module {
	return &Module{container: c}
}

// ServeHTTP dispatches in-process (no IPC).
func (m *Module) ServeHTTP(req *httpd.Request) (*httpd.Response, error) {
	return m.container.Handler().ServeHTTP(req)
}

// Container exposes the mounted container (telemetry reads its stats).
func (m *Module) Container() *servlet.Container { return m.container }

// Close shuts the container down.
func (m *Module) Close() error { return m.container.Close() }
