package servlet

import (
	"bytes"
	"encoding/gob"
	"sync"
)

// MemStore is the write-through replication target for HTTP session
// state: every Session.Set publishes the session's serialized attributes
// here, and a container that has no local copy of a session (or a stale
// one) restores it from here. Sharing one store across the replicated
// application tier is what makes load-balancer failover transparent — the
// surviving backend picks the session up mid-flight with its state intact.
// It is a mutex-guarded map shared by every container replica in the
// process: the lab's stand-in for a replication bus.
//
// Blobs are opaque to the store (the session manager gob-encodes the
// attribute map); versions are assigned by the store, monotonically per
// session, so a backend can cheaply detect that its local copy is behind
// (the session served requests on another backend since) and refresh.
type MemStore struct {
	mu   sync.Mutex
	byID map[string]memEntry
}

type memEntry struct {
	data []byte
	ver  uint64
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{byID: make(map[string]memEntry)}
}

// Save replaces the session's blob and returns its new version.
func (m *MemStore) Save(id string, data []byte) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.byID[id]
	e.ver++
	e.data = data
	m.byID[id] = e
	return e.ver
}

// Load returns the session's blob and its version.
func (m *MemStore) Load(id string) ([]byte, uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byID[id]
	return e.data, e.ver, ok
}

// Version returns the session's current version without the blob — the
// cheap staleness probe on the session lookup path.
func (m *MemStore) Version(id string) (uint64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.byID[id]
	return e.ver, ok
}

// Len returns the number of stored sessions.
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byID)
}

// encodeAttrs serializes a session's attribute map. Attribute values are
// gob-encoded, so applications storing custom types register them
// (gob.Register) — the same contract Java session replication places on
// attribute serializability.
func encodeAttrs(attrs map[string]any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(attrs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeAttrs deserializes a session blob.
func decodeAttrs(data []byte) (map[string]any, error) {
	var attrs map[string]any
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&attrs); err != nil {
		return nil, err
	}
	if attrs == nil {
		attrs = make(map[string]any)
	}
	return attrs, nil
}
