// Package walfault is the write-ahead log's crash-point harness: named
// points inside the WAL's append / fsync / checkpoint / rotate paths where a
// test (or an operator drill) can make the process die. The WAL calls
// Fire(point) at each site; an armed hook runs its action on the N-th hit —
// anything from a clean panic to os.Exit(137), the in-repo stand-in for
// kill -9. Production leaves the hook nil, which compiles down to one nil
// check per site.
//
// The action runs on the goroutine that reached the point. The log has no
// goroutine of its own, so for the append and fsync points that is a
// committing session's — under the wire server, the connection's goroutine,
// which has no recover(): a panic action takes the process down like any
// other unhandled panic. An action must not wait for that session to finish
// (closing its server from the hook would).
//
// Tests arm hooks directly with Set; subprocess crash tests arm them from
// the environment (SQLDB_WALFAULT=point:action[:N]) so a re-exec'd test
// binary can die mid-commit exactly like a production dbserver would.
package walfault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Point names one crash site inside the WAL.
type Point string

// The four crash sites the recovery matrix exercises. They bracket the two
// durability boundaries: records entering the log (append/fsync) and state
// leaving it (checkpoint/rotate).
const (
	// PreAppend fires before a commit's record batch enters the WAL buffer:
	// a crash here loses the commit entirely — the unacked-write case.
	PreAppend Point = "pre-append"
	// PostAppendPreFsync fires after a group's leader has written its batch to
	// the segment file but before fsync: a crash here is the torn-tail case —
	// bytes may or may not survive, and none of them were acked.
	PostAppendPreFsync Point = "post-append-pre-fsync"
	// MidCheckpoint fires after the checkpoint temp file is written but
	// before it is fsynced and renamed into place: recovery must fall back
	// to the previous checkpoint and replay a longer log suffix.
	MidCheckpoint Point = "mid-checkpoint"
	// MidRotate fires after a new segment is opened but before obsolete
	// segments and checkpoints are garbage-collected: recovery must cope
	// with overlapping segments on disk.
	MidRotate Point = "mid-rotate"
)

// Points lists every crash site, in log-lifecycle order — the axis the crash
// matrix iterates.
var Points = []Point{PreAppend, PostAppendPreFsync, MidCheckpoint, MidRotate}

// Hook is a set of armed crash points. The zero value is unarmed; a nil
// *Hook is legal and never fires.
type Hook struct {
	mu   sync.Mutex
	arms map[Point]*arm
}

type arm struct {
	hits  int // Fire calls seen so far
	after int // fire the action on the after-th hit (1-based)
	fn    func()
}

// New returns an empty hook.
func New() *Hook { return &Hook{arms: make(map[Point]*arm)} }

// Set arms point: the after-th Fire(point) call runs fn (after < 1 means the
// first). fn runs on the goroutine that hit the point — a fn that panics or
// exits therefore dies exactly where a real crash would.
func (h *Hook) Set(point Point, after int, fn func()) {
	if after < 1 {
		after = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.arms == nil {
		h.arms = make(map[Point]*arm)
	}
	h.arms[point] = &arm{after: after, fn: fn}
}

// Clear disarms point.
func (h *Hook) Clear(point Point) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.arms, point)
}

// Fire is called by the WAL at each crash site. It runs the armed action at
// most once, outside the hook's lock (the action typically never returns).
func (h *Hook) Fire(point Point) {
	if h == nil {
		return
	}
	h.mu.Lock()
	a := h.arms[point]
	var fn func()
	if a != nil {
		a.hits++
		if a.hits == a.after {
			fn = a.fn
		}
	}
	h.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// FromEnv parses $SQLDB_WALFAULT — "point:action[:N]" where action is
// "exit" (exit(137), the kill -9 stand-in) or "panic", and N is the hit
// number to die on (default 1) — and returns an armed hook, or nil when the
// variable is unset. exitFn is called for the exit action (os.Exit in
// production; tests substitute a recorder).
func FromEnv(exitFn func(code int)) (*Hook, error) {
	spec := os.Getenv("SQLDB_WALFAULT")
	if spec == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("walfault: bad SQLDB_WALFAULT %q (want point:action[:N])", spec)
	}
	point := Point(parts[0])
	ok := false
	for _, p := range Points {
		if p == point {
			ok = true
		}
	}
	if !ok {
		return nil, fmt.Errorf("walfault: unknown crash point %q", parts[0])
	}
	after := 1
	if len(parts) == 3 {
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("walfault: bad hit count %q", parts[2])
		}
		after = n
	}
	var fn func()
	switch parts[1] {
	case "exit":
		if exitFn == nil {
			exitFn = os.Exit
		}
		fn = func() { exitFn(137) }
	case "panic":
		fn = func() { panic(fmt.Sprintf("walfault: injected crash at %s", point)) }
	default:
		return nil, fmt.Errorf("walfault: unknown action %q (want exit or panic)", parts[1])
	}
	h := New()
	h.Set(point, after, fn)
	return h, nil
}
