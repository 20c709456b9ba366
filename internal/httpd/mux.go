package httpd

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
)

// Mux routes requests by path: exact matches first, then the longest
// registered prefix ending in "/".
type Mux struct {
	mu       sync.RWMutex
	exact    map[string]Handler
	prefixes map[string]Handler
	sorted   []string // prefix keys, longest first
}

// NewMux returns an empty mux.
func NewMux() *Mux {
	return &Mux{exact: make(map[string]Handler), prefixes: make(map[string]Handler)}
}

// Handle registers a handler. Patterns ending in "/" match by prefix.
func (m *Mux) Handle(pattern string, h Handler) {
	if pattern == "" || pattern[0] != '/' {
		panic(fmt.Sprintf("httpd: invalid pattern %q", pattern))
	}
	if h == nil {
		panic("httpd: nil handler")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if strings.HasSuffix(pattern, "/") {
		m.prefixes[pattern] = h
		m.sorted = append(m.sorted[:0:0], m.sorted...)
		m.sorted = nil
		for p := range m.prefixes {
			m.sorted = append(m.sorted, p)
		}
		sort.Slice(m.sorted, func(i, j int) bool { return len(m.sorted[i]) > len(m.sorted[j]) })
		return
	}
	m.exact[pattern] = h
}

// HandleFunc registers a function handler.
func (m *Mux) HandleFunc(pattern string, f func(*Request) (*Response, error)) {
	m.Handle(pattern, HandlerFunc(f))
}

// ServeHTTP dispatches to the matching handler or returns 404.
func (m *Mux) ServeHTTP(req *Request) (*Response, error) {
	m.mu.RLock()
	h := m.exact[req.Path]
	if h == nil {
		for _, p := range m.sorted {
			if strings.HasPrefix(req.Path, p) {
				h = m.prefixes[p]
				break
			}
		}
	}
	m.mu.RUnlock()
	if h == nil {
		return Error(404, "no handler for "+req.Path), nil
	}
	return h.ServeHTTP(req)
}

// StaticSet serves in-memory static content (the benchmark images are
// generated synthetically, so no on-disk document root is required).
type StaticSet struct {
	mu    sync.RWMutex
	files map[string][]byte
	types map[string]string
}

// NewStaticSet returns an empty static content set.
func NewStaticSet() *StaticSet {
	return &StaticSet{files: make(map[string][]byte), types: make(map[string]string)}
}

// Add registers content at path with an explicit content type.
func (s *StaticSet) Add(p string, body []byte, contentType string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[p] = body
	s.types[p] = contentType
}

// Len returns the number of files.
func (s *StaticSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

// TotalBytes returns the total stored size.
func (s *StaticSet) TotalBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, b := range s.files {
		n += len(b)
	}
	return n
}

// ServeHTTP serves the file at the request path.
func (s *StaticSet) ServeHTTP(req *Request) (*Response, error) {
	if req.Method != "GET" && req.Method != "HEAD" {
		return Error(405, ""), nil
	}
	s.mu.RLock()
	body, ok := s.files[req.Path]
	ct := s.types[req.Path]
	s.mu.RUnlock()
	if !ok {
		return Error(404, ""), nil
	}
	resp := NewResponse()
	if ct == "" {
		ct = contentTypeFor(req.Path)
	}
	resp.Header.Set("Content-Type", ct)
	resp.Body = body
	return resp, nil
}

// contentTypeFor guesses from the extension (the handful the site serves).
func contentTypeFor(p string) string {
	switch strings.ToLower(path.Ext(p)) {
	case ".html", ".htm":
		return "text/html; charset=utf-8"
	case ".gif":
		return "image/gif"
	case ".jpg", ".jpeg":
		return "image/jpeg"
	case ".png":
		return "image/png"
	case ".css":
		return "text/css"
	case ".txt":
		return "text/plain; charset=utf-8"
	default:
		return "application/octet-stream"
	}
}
