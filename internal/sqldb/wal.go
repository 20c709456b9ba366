package sqldb

// This file is the write-ahead log: the durability subsystem ROADMAP.md
// names as the prerequisite for production scale. The engine logs
// *logically* — each committed mutation's statement text plus its bound
// arguments — because the replicated cluster already relies on the engine
// being deterministic under an ordered statement stream (seeded populates,
// strided AUTO_INCREMENT, aborts that leave no trace): replaying the log re-derives the
// exact pre-crash state the same way a rejoining replica re-derives a
// peer's.
//
// Write path. Appends happen while the committing session still holds its
// table write locks (or the catalog lock, for DDL), so log order equals
// publication order per table; the append only encodes the record into an
// in-memory group buffer and assigns LSNs — one per statement, so a
// transaction's record spans [firstLSN, firstLSN+n). Durability is
// leader/follower group commit, and no goroutine or clock is involved: after
// releasing its locks the session calls WaitDurable, and the first committer
// that finds its LSN not yet durable becomes the leader — it writes and
// fsyncs everything buffered at that moment, on its own goroutine. Committers
// that arrive while that fsync is in flight queue behind it; the first of
// them leads the next group, whose one fsync covers all of them. A lone
// commit therefore costs one write + one fsync, a commit that arrives
// mid-fsync waits for at most two, and N concurrent commits share fsyncs.
// Acknowledgement is visible-before-durable for that long — one or two
// fsyncs; the client ack, not the publication, is the durability promise
// (PROTOCOL.md's commit contract).
//
// On-disk format. A segment file (wal-<firstLSN>.log) is a 16-byte header
// followed by records. Each record is one commit unit:
//
//	u32 payload length | u32 CRC32 (IEEE) of payload | payload
//	payload: u64 firstLSN | u32 nStmts | nStmts × statement
//	statement: u32 len | query text | u16 nArgs | nArgs × value
//	value: u8 kind | int64/float64 (8B LE) or u32 len + bytes (strings)
//
// Recovery (recover.go) loads the newest valid checkpoint, replays every
// record past it, and truncates the tail at the first bad checksum — a torn
// record is a commit that was never acknowledged, so dropping it is correct
// (torn-tail rule). The chain hash — fnv64a folded over every statement
// since LSN 0 — rides along so a rejoining replica can prove its state is a
// prefix of a peer's stream before asking for a delta (cluster.SyncAuto).
//
// Checkpoints. Checkpoint clones every table's committed state at a cut
// between commit sections (DB.commitMu and the catalog lock held for the
// clones — O(tables), no append in flight, no lock of any open transaction
// waited for), serializes the clones to ckpt-<LSN>.snap via a temp file +
// rename,
// then rotates to a fresh segment and garbage-collects segments and
// checkpoints wholly superseded. The walfault crash points (pre-append,
// post-append-pre-fsync, mid-checkpoint, mid-rotate) bracket each of these
// transitions for the kill-and-recover matrix.

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/sqldb/walfault"
)

// defaultCheckpointBytes is WALOptions.CheckpointBytes' zero value.
const defaultCheckpointBytes = 8 << 20

// walBufKeep caps the capacity of a group buffer kept for reuse, so one huge
// transaction does not pin its encoding for the life of the log.
const walBufKeep = 1 << 20

// maxWALRecord bounds a single record's payload: recovery refuses larger
// length prefixes so a corrupt length field cannot become an allocation
// bomb.
const maxWALRecord = 64 << 20

// walSegMagic / walCkptMagic head every segment / checkpoint file.
var (
	walSegMagic  = [8]byte{'W', 'A', 'L', 'S', 'E', 'G', '0', '1'}
	walCkptMagic = [8]byte{'W', 'A', 'L', 'C', 'K', 'P', '0', '1'}
)

const walSegHeaderSize = 16 // magic + u64 firstLSN

// Errors surfaced by WaitDurable when the log dies under a committer.
var (
	// ErrWALCrashed reports a (simulated or real) log failure: the commit
	// applied in memory but its durability is unknown.
	ErrWALCrashed = errors.New("sqldb: wal crashed")
	// ErrWALClosed reports an append raced a clean shutdown.
	ErrWALClosed = errors.New("sqldb: wal closed")
)

// WALOptions configures AttachWAL.
type WALOptions struct {
	// Dir is the data directory (created if absent). Segments and
	// checkpoints live directly inside it; one directory per DB.
	Dir string
	// CheckpointBytes triggers an automatic checkpoint once this many log
	// bytes accumulate since the last one. Default 8MiB; negative disables
	// automatic checkpoints (explicit Checkpoint calls still work).
	CheckpointBytes int64
	// Fault is the crash-point harness; nil in production.
	Fault *walfault.Hook
}

// WALStats is the log's observability surface, reported per replica by the
// database tier's telemetry.
type WALStats struct {
	Attached bool `json:"attached"`
	// Appends counts record batches (commit units) entering the log;
	// Stmts counts the statements inside them.
	Appends int64 `json:"wal_appends"`
	Stmts   int64 `json:"wal_stmts"`
	// Fsyncs counts fsync calls on the active segment — Appends/Fsyncs is
	// the group-commit amortization factor.
	Fsyncs int64 `json:"wal_fsyncs"`
	// Bytes counts record bytes appended (log volume, not file size).
	Bytes       int64 `json:"wal_bytes"`
	Checkpoints int64 `json:"checkpoints"`
	// Recoveries is 1 when this process recovered state from disk at
	// attach; ReplayedStmts counts statements replayed doing so.
	Recoveries    int64  `json:"recoveries"`
	ReplayedStmts int64  `json:"replayed_stmts"`
	LastLSN       uint64 `json:"last_lsn"`
	DurableLSN    uint64 `json:"durable_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
}

// walStmt is one logged statement: the source text and its bound arguments.
type walStmt struct {
	q    string
	args []Value
}

// walSegment is one on-disk log segment.
type walSegment struct {
	path     string
	firstLSN uint64
}

// WAL is an attached write-ahead log. All fields after construction are
// guarded as annotated; sessions only touch append/WaitDurable.
type WAL struct {
	db        *DB
	dir       string
	fault     *walfault.Hook
	ckptBytes int64

	// mu guards the append state: the group buffers, LSN/chain counters, the
	// active segment handle and the segment list. Appenders hold it only
	// long enough to encode into buf. Lock order: engine locks (db.mu /
	// table locks) → mu; never the reverse.
	mu sync.Mutex
	// buf collects records no leader has taken yet. A leader swaps it with
	// flight and writes flight to the segment; flight keeps its bytes until
	// fSize covers them, so a scanView never finds a batch in neither place.
	// The two arrays are reused, one filling while the other is written.
	buf            []byte
	flight         []byte
	bufLast        uint64 // last LSN sitting in buf
	nextLSN        uint64 // LSN the next statement gets
	chain          uint64 // chain hash through nextLSN-1
	f              *os.File
	fSize          int64        // bytes written to f (record boundary)
	syncedSize     int64        // bytes of f known fsynced
	segs           []walSegment // ascending firstLSN; last is active
	ckptLSN        uint64
	ckptChain      uint64
	bytesSinceCkpt int64
	crashed        bool
	closed         bool
	// derr is sticky: once a write or fsync fails, or the log crashes or
	// closes, no later group is written and every WaitDurable past the
	// durability frontier returns it.
	derr error
	// busy is the one token for I/O on the active segment: a group leader's
	// write+fsync, rotation's segment swap and Close hold it, with mu
	// released while they are in the kernel. idle is signalled when it is
	// put back; committers whose LSN is not yet durable wait there.
	busy bool
	idle sync.Cond // on mu
	// durableLSN is the durability frontier: every LSN at or below it is
	// fsynced.
	durableLSN uint64

	// ckptMu serializes checkpoints.
	ckptMu   sync.Mutex
	ckptBusy atomic.Bool

	appends     atomic.Int64
	stmts       atomic.Int64
	fsyncs      atomic.Int64
	bytes       atomic.Int64
	checkpoints atomic.Int64
	recoveries  atomic.Int64
	replayed    atomic.Int64
}

// WAL returns the attached log, or nil.
func (db *DB) WAL() *WAL { return db.wal }

// WALStats snapshots the log counters; the zero struct when no log is
// attached.
func (db *DB) WALStats() WALStats {
	w := db.wal
	if w == nil {
		return WALStats{}
	}
	w.mu.Lock()
	last, durable, ckpt := w.nextLSN-1, w.durableLSN, w.ckptLSN
	w.mu.Unlock()
	return WALStats{
		Attached:      true,
		Appends:       w.appends.Load(),
		Stmts:         w.stmts.Load(),
		Fsyncs:        w.fsyncs.Load(),
		Bytes:         w.bytes.Load(),
		Checkpoints:   w.checkpoints.Load(),
		Recoveries:    w.recoveries.Load(),
		ReplayedStmts: w.replayed.Load(),
		LastLSN:       last,
		DurableLSN:    durable,
		CheckpointLSN: ckpt,
	}
}

// ---- value / statement / record codec ----

// EncodeWALValues encodes bound arguments in the WAL's value format — the
// representation SHOW WAL RECORDS ships (base64ed) to a rejoining replica.
func EncodeWALValues(args []Value) []byte {
	var b []byte
	for _, v := range args {
		b = appendWALValue(b, v)
	}
	return b
}

// DecodeWALValues is EncodeWALValues' inverse. Trailing garbage is an error.
func DecodeWALValues(b []byte) ([]Value, error) {
	r := leReader{b: b}
	var vals []Value
	for len(r.b) > 0 {
		vals = append(vals, r.value())
	}
	if r.err != nil {
		return nil, r.err
	}
	return vals, nil
}

func appendWALValue(b []byte, v Value) []byte {
	kind := v.Kind()
	b = append(b, byte(kind))
	switch kind {
	case KindNull:
	case KindInt, KindFloat:
		b = binary.LittleEndian.AppendUint64(b, v.n) // the integer, or the float's bits
	case KindString:
		b = appendLenStr(b, v.str())
	}
	return b
}

var errLogTruncated = errors.New("sqldb: log data truncated")

// leReader is the one bounds-checked cursor over the log's little-endian
// formats — a record's payload, an encoded argument list, a checkpoint
// body. Reading past the end, or a malformed value, sets err and empties
// the cursor, so every later read yields zero and corrupt input surfaces as
// an error, never a panic: callers check err once after a run of reads.
type leReader struct {
	b   []byte
	err error
}

func (r *leReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// next consumes n bytes; nil once the cursor has failed.
func (r *leReader) next(n int) []byte {
	if n < 0 || n > len(r.b) {
		r.fail(errLogTruncated)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *leReader) u8() byte {
	if p := r.next(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *leReader) u16() uint16 {
	if p := r.next(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *leReader) u32() uint32 {
	if p := r.next(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *leReader) u64() uint64 {
	if p := r.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// str reads appendLenStr's u32-length-prefixed string.
func (r *leReader) str() string { return string(r.next(int(r.u32()))) }

// value reads one appendWALValue value.
func (r *leReader) value() Value {
	switch kind := Kind(r.u8()); {
	case r.err != nil:
	case kind == KindNull:
		return Null()
	case kind == KindInt:
		return Int(int64(r.u64()))
	case kind == KindFloat:
		return Float(math.Float64frombits(r.u64()))
	case kind == KindString:
		return String(r.str())
	default:
		r.fail(fmt.Errorf("sqldb: wal value: unknown kind %d", kind))
	}
	return Value{}
}

// chainStep folds one statement into the chain hash: fnv-64a over the
// previous hash (8B LE), the query text, a zero byte and the encoded
// arguments. The chain is comparable across replicas because the ROWA cluster
// delivers every replica the same ordered statement stream.
func chainStep(prev uint64, q string, encArgs []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(prev>>(8*i)))) * prime64
	}
	for i := 0; i < len(q); i++ {
		h = (h ^ uint64(q[i])) * prime64
	}
	h *= prime64 // the zero separator: h ^ 0 == h
	for _, c := range encArgs {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// appendRecord encodes one commit unit (length + crc + payload) onto b and
// folds its statements into chain. The record is built in place: the group
// buffer is the only copy the commit path makes.
func appendRecord(b []byte, firstLSN uint64, stmts []walStmt, chain uint64) ([]byte, uint64) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length and crc, set below
	b = binary.LittleEndian.AppendUint64(b, firstLSN)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(stmts)))
	for _, st := range stmts {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(st.q)))
		b = append(b, st.q...)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(st.args)))
		args := len(b)
		for _, v := range st.args {
			b = appendWALValue(b, v)
		}
		chain = chainStep(chain, st.q, b[args:])
	}
	payload := b[start+8:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b, chain
}

// walRecStmt is one decoded logged statement.
type walRecStmt struct {
	lsn     uint64
	q       string
	encArgs []byte
}

func (s walRecStmt) values() ([]Value, error) { return DecodeWALValues(s.encArgs) }

// decodeRecord parses one record from b. It returns the decoded statements
// and the remaining bytes. io-style sentinel behavior: (nil, b, errWALNeedMore)
// when b holds a clean prefix of a record (torn tail), a real error for
// checksum/shape violations.
var errWALNeedMore = errors.New("sqldb: wal record: truncated")

func decodeRecord(b []byte) (stmts []walRecStmt, rest []byte, err error) {
	if len(b) < 8 {
		return nil, b, errWALNeedMore
	}
	n := int(binary.LittleEndian.Uint32(b))
	crc := binary.LittleEndian.Uint32(b[4:])
	if n < 12 || n > maxWALRecord {
		return nil, b, fmt.Errorf("sqldb: wal record: implausible length %d", n)
	}
	if len(b) < 8+n {
		return nil, b, errWALNeedMore
	}
	payload := b[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, b, errors.New("sqldb: wal record: checksum mismatch")
	}
	r := leReader{b: payload}
	firstLSN := r.u64()
	count := int(r.u32())
	if count < 1 || count > n {
		return nil, b, fmt.Errorf("sqldb: wal record: implausible statement count %d", count)
	}
	stmts = make([]walRecStmt, 0, count)
	for i := 0; i < count && r.err == nil; i++ {
		q := r.str()
		nargs := int(r.u16())
		// Walk the args to find the statement boundary, validating shape.
		args := r.b
		for a := 0; a < nargs; a++ {
			r.value()
		}
		stmts = append(stmts, walRecStmt{
			lsn:     firstLSN + uint64(i),
			q:       q,
			encArgs: args[:len(args)-len(r.b)],
		})
	}
	if r.err != nil {
		return nil, b, r.err
	}
	if len(r.b) != 0 {
		return nil, b, errors.New("sqldb: wal record: trailing bytes in payload")
	}
	return stmts, b[8+n:], nil
}

// ---- append path ----

// appendOne logs a single auto-commit statement; see appendBatch.
func (w *WAL) appendOne(q string, args []Value) uint64 {
	return w.appendBatch([]walStmt{{q: q, args: args}})
}

// appendBatch logs one commit unit (a whole transaction, or one auto-commit
// statement) and returns the unit's last LSN, which the session passes to
// WaitDurable after releasing its locks. Callers must still hold the engine
// locks covering the statements, so per-table log order equals publication
// order.
func (w *WAL) appendBatch(stmts []walStmt) uint64 {
	w.fault.Fire(walfault.PreAppend)
	w.mu.Lock()
	defer w.mu.Unlock()
	first := w.nextLSN
	w.nextLSN = first + uint64(len(stmts))
	last := w.nextLSN - 1
	start := len(w.buf)
	w.buf, w.chain = appendRecord(w.buf, first, stmts, w.chain)
	if w.closed || w.crashed {
		// A dead log still numbers and chains the unit (WaitDurable reports
		// why it is not durable) but keeps none of it.
		w.buf = w.buf[:start]
		return last
	}
	n := int64(len(w.buf) - start)
	w.bufLast = last
	w.bytesSinceCkpt += n
	w.appends.Add(1)
	w.stmts.Add(int64(len(stmts)))
	w.bytes.Add(n)
	return last
}

// ---- group commit ----

// WaitDurable blocks until lsn is fsynced — the group-commit wait. While
// another committer's group is being written the caller waits for it; if
// that group did not cover lsn (the record arrived after it was taken), the
// first waiter to wake leads the next one, which does. It returns the log's
// sticky error (ErrWALCrashed, ErrWALClosed, or the write/fsync failure) if
// the log died first: the in-memory apply already happened; durability is
// what failed.
func (w *WAL) WaitDurable(lsn uint64) error {
	w.mu.Lock()
	for w.busy && w.durableLSN < lsn {
		w.idle.Wait()
	}
	if w.durableLSN >= lsn {
		w.mu.Unlock()
		return nil
	}
	w.busy = true
	err := w.flush()
	w.release()
	w.mu.Unlock()
	w.maybeCheckpoint()
	return err
}

// acquire takes the segment-I/O token, waiting for its holder; release puts
// it back and wakes every waiter. Both are called with mu held.
func (w *WAL) acquire() {
	for w.busy {
		w.idle.Wait()
	}
	w.busy = true
}

func (w *WAL) release() {
	w.busy = false
	w.idle.Broadcast()
}

// flush writes every record buffered now to the active segment and fsyncs
// it — one group, one fsync — then advances the durability frontier. The
// caller holds mu and the I/O token; the group is taken before mu is first
// released — around the write, the crash point and the fsync. The error is
// the sticky one, when the log is dead or dies here.
func (w *WAL) flush() error {
	if w.derr != nil || len(w.buf) == 0 {
		return w.derr
	}
	w.buf, w.flight = w.flight[:0], w.buf
	batch, last, f := w.flight, w.bufLast, w.f

	w.mu.Unlock()
	_, err := f.Write(batch)
	w.mu.Lock()
	if err != nil {
		// flight stays as it is: the log is dead, and a scan still finds
		// every record that was numbered.
		return w.fail(fmt.Errorf("sqldb: wal write: %w", err))
	}
	w.fSize += int64(len(batch))
	if cap(batch) > walBufKeep {
		batch = nil
	}
	w.flight = batch[:0]

	w.mu.Unlock()
	w.fault.Fire(walfault.PostAppendPreFsync)
	w.mu.Lock()
	if w.crashed {
		// Power cut between write and fsync: the bytes past the last sync
		// are gone (worst case), and nothing was acknowledged.
		w.truncateToSynced()
		return w.derr
	}

	w.mu.Unlock()
	err = f.Sync()
	w.mu.Lock()
	if err != nil {
		return w.fail(fmt.Errorf("sqldb: wal fsync: %w", err))
	}
	w.fsyncs.Add(1)
	w.syncedSize = w.fSize
	w.durableLSN = last
	return nil
}

// fail makes err the log's sticky error unless it already has one, and
// returns the one that stuck. Caller holds mu.
func (w *WAL) fail(err error) error {
	if w.derr == nil {
		w.derr = err
	}
	return w.derr
}

// truncateToSynced models the post-crash disk state: only fsynced bytes
// survive (Crash already dropped the buffer). Caller holds mu and the I/O
// token.
func (w *WAL) truncateToSynced() {
	w.fSize = w.syncedSize
	w.f.Truncate(w.syncedSize)
}

// Crash simulates kill -9 / power loss in-process: the log stops, every
// byte not yet fsynced is discarded (the pessimal outcome a real crash
// permits), and pending commits fail with ErrWALCrashed. The DB itself
// keeps serving from memory — tests then discard it and recover a fresh DB
// from the directory. Safe to call from a walfault hook on a group leader's
// goroutine: while the segment is busy the truncation is left to whoever
// holds it.
func (w *WAL) Crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed || w.closed {
		return
	}
	w.crashed = true
	w.fail(ErrWALCrashed)
	w.buf = w.buf[:0]
	if !w.busy {
		w.truncateToSynced()
	}
}

// Close flushes the buffered tail, fsyncs and closes the log — the
// clean-shutdown path dbserver's SIGTERM drain takes after the wire
// listeners close. A record appended but never waited on is on disk after
// it.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.acquire()
	defer w.release()
	if w.closed {
		return nil
	}
	// From here appends stop buffering, and flush takes the final tail
	// before mu is next released: a unit that misses it finds derr set by
	// the time it can lead a group of its own.
	w.closed = true
	var err error
	if !w.crashed {
		err = w.flush()
	}
	w.fail(ErrWALClosed)
	if cerr := w.f.Close(); err == nil && !w.crashed {
		err = cerr
	}
	return err
}

// CloseWAL cleanly closes the attached log, if any.
func (db *DB) CloseWAL() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

// ---- checkpoint & rotation ----

func (w *WAL) maybeCheckpoint() {
	w.mu.Lock()
	due := w.ckptBytes > 0 && w.bytesSinceCkpt >= w.ckptBytes && !w.crashed && !w.closed
	w.mu.Unlock()
	if due && w.ckptBusy.CompareAndSwap(false, true) {
		go func() {
			defer w.ckptBusy.Store(false)
			w.Checkpoint()
		}()
	}
}

// Checkpoint snapshots every table to a sidecar file and rotates the log:
// recovery then starts from the snapshot and replays only the records past
// it. Commits are excluded only while the tables are cloned (O(1) each), not
// for the file write, and an open transaction is not waited for at all: its
// forks are not committed state, and its record will carry a later LSN.
func (w *WAL) Checkpoint() error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	db := w.db

	// Every append happens inside a commit section or under the catalog
	// write lock, so with both excluded no record is in flight while we
	// capture (LSN, chain) and the states — the snapshot is exactly the
	// state through that LSN.
	db.mu.RLock()
	db.commitMu.Lock()
	w.mu.Lock()
	lsn, chain := w.nextLSN-1, w.chain
	crashed := w.crashed || w.closed
	w.mu.Unlock()
	var states []*Table
	if !crashed {
		for _, n := range db.tableNamesLocked() {
			t := db.tables[n]
			t.mu.Lock() // against a reader cloning its view
			states = append(states, t.detach())
			t.mu.Unlock()
		}
	}
	db.commitMu.Unlock()
	db.mu.RUnlock()
	if crashed {
		return ErrWALCrashed
	}

	if err := w.writeCheckpoint(lsn, chain, states); err != nil {
		return err
	}
	w.mu.Lock()
	w.ckptLSN, w.ckptChain = lsn, chain
	w.bytesSinceCkpt = 0
	w.mu.Unlock()
	w.checkpoints.Add(1)
	return w.rotate(lsn)
}

func ckptPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x.snap", lsn))
}

func segPath(dir string, firstLSN uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", firstLSN))
}

// writeCheckpoint serializes the captured tables to ckpt-<lsn>.snap via a
// temp file, fsync, rename, directory fsync — the standard atomic-publish
// dance, so a crash leaves either the old checkpoint set or the new one,
// never a half-written file under the real name.
func (w *WAL) writeCheckpoint(lsn, chain uint64, tables []*Table) error {
	body := binary.LittleEndian.AppendUint64(nil, lsn)
	body = binary.LittleEndian.AppendUint64(body, chain)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(tables)))
	for _, t := range tables {
		body = appendCkptTable(body, t)
	}
	tmp := filepath.Join(w.dir, "ckpt.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(walCkptMagic[:])
	if err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		var crcb [4]byte
		binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(body))
		_, err = f.Write(crcb[:])
	}
	if err != nil {
		f.Close()
		return err
	}
	w.fault.Fire(walfault.MidCheckpoint)
	if w.isCrashed() {
		// Simulated power cut mid-checkpoint: leave the temp file exactly
		// as a real crash would; recovery ignores it.
		f.Close()
		return ErrWALCrashed
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, ckptPath(w.dir, lsn)); err != nil {
		return err
	}
	return fsyncDir(w.dir)
}

func appendCkptTable(b []byte, t *Table) []byte {
	b = appendLenStr(b, t.name)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.columns)))
	for _, c := range t.columns {
		b = appendLenStr(b, c.Name)
		b = append(b, byte(c.Type))
		var flags byte
		if c.PrimaryKey {
			flags |= 1
		}
		if c.AutoIncrement {
			flags |= 2
		}
		if c.NotNull {
			flags |= 4
		}
		b = append(b, flags)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(t.nextID))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.nextAI))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.aiOffset))
	b = binary.LittleEndian.AppendUint64(b, uint64(t.aiStride))
	// Secondary indexes ("primary" is rebuilt by newTable).
	names := make([]string, 0, len(t.indexes))
	for n := range t.indexes {
		if n != "primary" {
			names = append(names, n)
		}
	}
	sortStrings(names)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for _, n := range names {
		ix := t.indexes[n]
		b = appendLenStr(b, ix.name)
		b = binary.LittleEndian.AppendUint32(b, uint32(ix.col))
		if ix.unique {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(t.rows.len()))
	t.rows.ascend(nil, func(id int64, ref rowRef) bool {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		for _, v := range ref.row(len(t.columns)) {
			b = appendWALValue(b, v)
		}
		return true
	})
	return b
}

func appendLenStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func (w *WAL) isCrashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.crashed
}

// swapSegment seals the active segment and opens a fresh one at the next LSN,
// holding the I/O token throughout so no group lands in between. It returns
// the segment list afterwards.
func (w *WAL) swapSegment() ([]walSegment, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.acquire()
	defer w.release()
	// Drain the buffer into the old segment — a group like any other, taken
	// before mu is next released — so every record below newFirst lives
	// there, sealed by the group's fsync.
	newFirst := w.nextLSN
	if err := w.flush(); err != nil {
		return nil, err
	}
	// An active segment that holds no records yet (its firstLSN IS the next
	// LSN to assign — e.g. the initial checkpoint right after attach, or
	// back-to-back checkpoints with no writes between) is already the
	// post-checkpoint segment: creating a "new" one would reuse the same
	// file name and the GC in rotate would delete the file out from under
	// the live descriptor. Keep it.
	if w.segs[len(w.segs)-1].firstLSN != newFirst {
		old := w.f
		w.mu.Unlock()
		old.Close()
		f, err := createSegment(w.dir, newFirst)
		w.mu.Lock()
		if err != nil {
			return nil, w.fail(err)
		}
		w.f = f
		w.fSize = walSegHeaderSize
		w.syncedSize = walSegHeaderSize
		w.segs = append(w.segs, walSegment{path: segPath(w.dir, newFirst), firstLSN: newFirst})
	}
	return append([]walSegment(nil), w.segs...), nil
}

// rotate swaps in a fresh segment, then deletes segments and checkpoints
// wholly covered by the checkpoint at upto.
func (w *WAL) rotate(upto uint64) error {
	segs, err := w.swapSegment()
	if err != nil {
		return err
	}
	w.fault.Fire(walfault.MidRotate)
	if w.isCrashed() {
		return ErrWALCrashed
	}
	// GC: a segment is dead when a successor exists and every record it
	// could hold is ≤ the checkpoint; old checkpoints are strictly
	// superseded by the one at upto.
	keep := segs[:0:0]
	for i, s := range segs {
		if i+1 < len(segs) && segs[i+1].firstLSN <= upto+1 {
			os.Remove(s.path)
			continue
		}
		keep = append(keep, s)
	}
	w.mu.Lock()
	w.segs = keep
	w.mu.Unlock()
	if ents, err := os.ReadDir(w.dir); err == nil {
		for _, e := range ents {
			var lsn uint64
			if _, err := fmt.Sscanf(e.Name(), "ckpt-%016x.snap", &lsn); err == nil && lsn < upto {
				os.Remove(filepath.Join(w.dir, e.Name()))
			}
		}
	}
	return fsyncDir(w.dir)
}

func createSegment(dir string, firstLSN uint64) (*os.File, error) {
	path := segPath(dir, firstLSN)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, walSegHeaderSize)
	hdr = append(hdr, walSegMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, firstLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := fsyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- log scanning (SHOW WAL ... and recovery share this) ----

// scanState captures a consistent read view of the log: finished bytes of
// every on-disk segment plus the tail not yet counted in fSize — the group in
// flight, if any, then the buffer behind it.
type scanState struct {
	segs    []walSegment
	activeN int64 // bytes of the active (last) segment to trust
	tail    []byte
	lastLSN uint64
	durable uint64
	chain   uint64
	ckptLSN uint64
	ckptCh  uint64
}

func (w *WAL) scanView() scanState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return scanState{
		segs:    append([]walSegment(nil), w.segs...),
		activeN: w.fSize,
		tail:    append(append([]byte(nil), w.flight...), w.buf...),
		lastLSN: w.nextLSN - 1,
		durable: w.durableLSN,
		chain:   w.chain,
		ckptLSN: w.ckptLSN,
		ckptCh:  w.ckptChain,
	}
}

// scanStmts streams every logged statement in the view with lsn > after, in
// LSN order, until fn returns false. Statements at or below the checkpoint
// may appear in pre-GC segments; they are skipped via the after filter the
// callers pass.
func (v scanState) scanStmts(after uint64, fn func(walRecStmt) bool) error {
	emit := func(b []byte) (bool, error) {
		for len(b) > 0 {
			stmts, rest, err := decodeRecord(b)
			if err != nil {
				return false, err
			}
			for _, st := range stmts {
				if st.lsn <= after {
					continue
				}
				if !fn(st) {
					return false, nil
				}
			}
			b = rest
		}
		return true, nil
	}
	for i, s := range v.segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		if len(data) < walSegHeaderSize {
			return errors.New("sqldb: wal segment: short header")
		}
		body := data[walSegHeaderSize:]
		if i == len(v.segs)-1 {
			// The active segment may have grown past the captured view;
			// only the captured prefix is record-aligned for sure.
			if n := v.activeN - walSegHeaderSize; int64(len(body)) > n {
				body = body[:n]
			}
			body = append(body, v.tail...)
		}
		cont, err := emit(body)
		if err != nil || !cont {
			return err
		}
	}
	return nil
}

// ---- SHOW WAL executors ----

// execShowWALStatus serves SHOW WAL STATUS. LSNs and hashes are reported as
// int64 bit patterns (the engine's integer type); consumers compare them
// for equality only.
func (db *DB) execShowWALStatus() (*Result, error) {
	res := &Result{Columns: []string{"attached", "last_lsn", "durable_lsn", "chain", "checkpoint_lsn"}}
	w := db.wal
	if w == nil {
		res.Rows = append(res.Rows, Row{Int(0), Int(0), Int(0), Int(0), Int(0)})
		return res, nil
	}
	v := w.scanView()
	res.Rows = append(res.Rows, Row{
		Int(1), Int(int64(v.lastLSN)), Int(int64(v.durable)),
		Int(int64(v.chain)), Int(int64(v.ckptLSN)),
	})
	return res, nil
}

// execShowWALChain serves SHOW WAL CHAIN n: (lsn, chain, available). The
// chain at n is reconstructible only while n is at or past the checkpoint
// the log was last rotated against.
func (db *DB) execShowWALChain(at uint64) (*Result, error) {
	res := &Result{Columns: []string{"lsn", "chain", "available"}}
	w := db.wal
	if w == nil {
		res.Rows = append(res.Rows, Row{Int(int64(at)), Int(0), Int(0)})
		return res, nil
	}
	v := w.scanView()
	chain, ok := v.chainAt(at)
	avail := Int(0)
	if ok {
		avail = Int(1)
	}
	res.Rows = append(res.Rows, Row{Int(int64(at)), Int(int64(chain)), avail})
	return res, nil
}

func (v scanState) chainAt(at uint64) (uint64, bool) {
	switch {
	case at > v.lastLSN || at < v.ckptLSN:
		return 0, false
	case at == v.lastLSN:
		return v.chain, true
	case at == v.ckptLSN:
		return v.ckptCh, true
	}
	chain := v.ckptCh
	reached := false
	err := v.scanStmts(v.ckptLSN, func(st walRecStmt) bool {
		chain = chainStep(chain, st.q, st.encArgs)
		if st.lsn == at {
			reached = true
			return false
		}
		return true
	})
	if err != nil || !reached {
		return 0, false
	}
	return chain, true
}

// execShowWALRecords serves SHOW WAL RECORDS SINCE n LIMIT m: the logged
// statements with LSN > n as (lsn, query, base64(args)) rows — the
// log-shipping payload a rejoining replica replays. Asking below the
// retained horizon is an error (the caller must fall back to a full copy).
func (db *DB) execShowWALRecords(since uint64, limit int64) (*Result, error) {
	w := db.wal
	if w == nil {
		return nil, errors.New("sqldb: no wal attached")
	}
	v := w.scanView()
	if since < v.ckptLSN {
		return nil, fmt.Errorf("sqldb: wal records before lsn %d rotated away (asked since %d)", v.ckptLSN, since)
	}
	if limit < 0 {
		limit = int64(^uint64(0) >> 1)
	}
	res := &Result{Columns: []string{"lsn", "query", "args"}}
	err := v.scanStmts(since, func(st walRecStmt) bool {
		if int64(len(res.Rows)) >= limit {
			return false
		}
		res.Rows = append(res.Rows, Row{
			Int(int64(st.lsn)), String(st.q),
			String(base64.StdEncoding.EncodeToString(st.encArgs)),
		})
		return int64(len(res.Rows)) < limit
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
