package sqldb

// Boot-time WAL recovery: AttachWAL loads the newest valid checkpoint
// snapshot into the (empty) engine, replays every log record past it
// through the normal session executor, truncates a torn tail at the first
// bad checksum, and arms the log for new appends. Replay is exactly the
// rejoin path in miniature — the engine is deterministic under an ordered
// statement stream, so re-executing the logged statements re-derives the
// pre-crash committed state, uncommitted transactions excluded (they were
// never logged).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/sqldb/sqlparse"
)

// RecoveryInfo reports what AttachWAL found on disk.
type RecoveryInfo struct {
	// Recovered is true when the directory held prior state (a checkpoint
	// or log segments) that was loaded into the engine.
	Recovered bool
	// CheckpointLSN is the snapshot the engine was seeded from (0: none).
	CheckpointLSN uint64
	// ReplayLSN is the last statement LSN applied — recovery stopped here.
	ReplayLSN uint64
	// ReplayedStmts counts statements re-executed from the log.
	ReplayedStmts int
	// ReplayErrors counts replayed statements that returned errors. A
	// logged auto-commit statement that originally failed (say, the tail
	// of a partially applied multi-row INSERT) fails identically on
	// replay, so a nonzero count is not by itself corruption.
	ReplayErrors int
	// TornTail is true when a truncated or corrupt record ended replay and
	// the log was truncated at that point (the unacknowledged-commit rule:
	// nothing at or past a bad checksum is ever applied).
	TornTail bool
}

// WALDirHasState reports whether dir holds recoverable WAL state — the
// boot-order probe: callers populate first and attach after on a fresh
// directory, but must attach-and-recover without populating on a used one.
func WALDirHasState(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		var x uint64
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%016x.snap", &x); err == nil {
			return true
		}
		if _, err := fmt.Sscanf(e.Name(), "wal-%016x.log", &x); err == nil {
			return true
		}
	}
	return false
}

// AttachWAL opens (creating if needed) the write-ahead log in opts.Dir,
// recovers any state found there into db, and arms logging: from here on
// every committed mutation is logged and acknowledged only once fsynced
// (group commit). On a fresh directory with a pre-populated db — the
// populate-then-attach boot order — an initial checkpoint captures the
// populated state so it is durable without having been logged statement by
// statement. Recovering into a non-empty db is refused.
func (db *DB) AttachWAL(opts WALOptions) (*RecoveryInfo, error) {
	if db.wal != nil {
		return nil, errors.New("sqldb: wal already attached")
	}
	if opts.Dir == "" {
		return nil, errors.New("sqldb: wal: empty data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		db:        db,
		dir:       opts.Dir,
		fault:     opts.Fault,
		ckptBytes: opts.CheckpointBytes,
		nextLSN:   1,
	}
	w.idle.L = &w.mu
	if w.ckptBytes == 0 {
		w.ckptBytes = defaultCheckpointBytes
	}

	ckpts, segFirsts, err := scanWALDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	hasState := len(ckpts) > 0 || len(segFirsts) > 0
	if hasState && len(db.TableNames()) > 0 {
		return nil, errors.New("sqldb: wal: refusing to recover into a non-empty database")
	}

	info := &RecoveryInfo{Recovered: hasState}

	// Newest checkpoint that loads cleanly wins; older ones are the
	// fallback a crash during checkpoint write leaves us (the temp file
	// never got renamed, so a *named* checkpoint is complete by
	// construction — the fallback guards against disk-level corruption).
	for i := len(ckpts) - 1; i >= 0; i-- {
		lsn, chain, tables, err := loadCheckpoint(ckptPath(opts.Dir, ckpts[i]))
		if err != nil {
			continue
		}
		db.mu.Lock()
		for _, t := range tables {
			db.tables[t.name] = t
			t.version.Add(1)
		}
		db.mu.Unlock()
		w.ckptLSN, w.ckptChain = lsn, chain
		w.chain = chain
		info.CheckpointLSN = lsn
		break
	}

	// Replay segments in LSN order past the checkpoint. A torn or corrupt
	// record — or a gap — ends replay: the log is truncated there and any
	// later segments are removed, so no future boot can apply records past
	// a bad checksum either.
	applied := w.ckptLSN
	sess := db.NewSession()
	replayDone := false
	for _, first := range segFirsts {
		if replayDone {
			os.Remove(segPath(opts.Dir, first))
			continue
		}
		path := segPath(opts.Dir, first)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if len(data) < walSegHeaderSize || [8]byte(data[:8]) != walSegMagic {
			// Garbage file: a break in the log right at this segment.
			os.Remove(path)
			info.TornTail = true
			replayDone = true
			continue
		}
		off := walSegHeaderSize
		for off < len(data) {
			stmts, rest, err := decodeRecord(data[off:])
			if err != nil {
				truncateWALFile(path, int64(off))
				info.TornTail = true
				replayDone = true
				break
			}
			gap := false
			for _, st := range stmts {
				if st.lsn <= applied {
					continue // pre-GC overlap with the checkpoint
				}
				if st.lsn != applied+1 {
					gap = true
					break
				}
				vals, verr := st.values()
				if verr != nil {
					gap = true
					break
				}
				if _, xerr := sess.Exec(st.q, vals...); xerr != nil {
					info.ReplayErrors++
				}
				w.chain = chainStep(w.chain, st.q, st.encArgs)
				applied = st.lsn
				info.ReplayedStmts++
			}
			if gap {
				truncateWALFile(path, int64(off))
				info.TornTail = true
				replayDone = true
				break
			}
			off = len(data) - len(rest)
		}
		w.segs = append(w.segs, walSegment{path: path, firstLSN: first})
	}
	sess.Close()
	w.nextLSN = applied + 1
	// Everything replayed came off fsynced segments: the durability frontier
	// starts at the replay head, not at zero.
	w.durableLSN = applied
	info.ReplayLSN = applied

	// Arm the log: append into the last surviving segment, or start a
	// fresh one.
	if n := len(w.segs); n > 0 {
		f, err := os.OpenFile(w.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil { // make any truncation durable
			f.Close()
			return nil, err
		}
		w.f = f
		w.fSize, w.syncedSize = st.Size(), st.Size()
	} else {
		f, err := createSegment(opts.Dir, w.nextLSN)
		if err != nil {
			return nil, err
		}
		w.f = f
		w.fSize, w.syncedSize = walSegHeaderSize, walSegHeaderSize
		w.segs = append(w.segs, walSegment{path: segPath(opts.Dir, w.nextLSN), firstLSN: w.nextLSN})
	}
	os.Remove(filepath.Join(opts.Dir, "ckpt.tmp")) // crash-mid-checkpoint leftover
	if err := fsyncDir(opts.Dir); err != nil {
		return nil, err
	}

	if hasState {
		w.recoveries.Store(1)
		w.replayed.Store(int64(info.ReplayedStmts))
	}
	db.wal = w

	if !hasState && len(db.TableNames()) > 0 {
		// Populate-then-attach boot: checkpoint now so the seeded state is
		// durable from the start.
		if err := w.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return info, nil
}

// Checkpoint snapshots the attached log; no-op error when none is attached.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return errors.New("sqldb: no wal attached")
	}
	return db.wal.Checkpoint()
}

func truncateWALFile(path string, n int64) {
	if f, err := os.OpenFile(path, os.O_WRONLY, 0o644); err == nil {
		f.Truncate(n)
		f.Sync()
		f.Close()
	}
}

// scanWALDir lists checkpoint LSNs (ascending) and segment first-LSNs
// (ascending) found in dir.
func scanWALDir(dir string) (ckpts, segs []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		var x uint64
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%016x.snap", &x); err == nil {
			ckpts = append(ckpts, x)
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "wal-%016x.log", &x); err == nil {
			segs = append(segs, x)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return ckpts, segs, nil
}

// ---- checkpoint file parsing ----

// loadCheckpoint parses a checkpoint snapshot into detached Tables.
func loadCheckpoint(path string) (lsn, chain uint64, tables []*Table, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(data) < 8+4 || [8]byte(data[:8]) != walCkptMagic {
		return 0, 0, nil, errors.New("sqldb: checkpoint: bad magic")
	}
	body := data[8 : len(data)-4]
	crc := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return 0, 0, nil, errors.New("sqldb: checkpoint: checksum mismatch")
	}
	r := &leReader{b: body}
	lsn = r.u64()
	chain = r.u64()
	n := int(r.u32())
	if r.err != nil || n < 0 || n > 1<<20 {
		return 0, 0, nil, errors.New("sqldb: checkpoint: bad table count")
	}
	for i := 0; i < n; i++ {
		t, terr := loadCkptTable(r)
		if terr != nil {
			return 0, 0, nil, terr
		}
		tables = append(tables, t)
	}
	if len(r.b) != 0 {
		return 0, 0, nil, errors.New("sqldb: checkpoint: trailing bytes")
	}
	return lsn, chain, tables, nil
}

func loadCkptTable(r *leReader) (*Table, error) {
	name := r.str()
	ncols := int(r.u32())
	if r.err != nil || ncols < 1 || ncols > 1<<16 {
		return nil, errors.New("sqldb: checkpoint: bad column count")
	}
	cols := make([]Column, 0, ncols)
	for i := 0; i < ncols; i++ {
		cname := r.str()
		typ := r.u8()
		flags := r.u8()
		if r.err != nil {
			return nil, r.err
		}
		cols = append(cols, Column{
			Name:          cname,
			Type:          sqlparse.ColType(typ),
			PrimaryKey:    flags&1 != 0,
			AutoIncrement: flags&2 != 0,
			NotNull:       flags&4 != 0,
		})
	}
	t, err := newTable(name, cols)
	if err != nil {
		return nil, err
	}
	t.nextID = int64(r.u64())
	t.nextAI = int64(r.u64())
	t.aiOffset = int64(r.u64())
	t.aiStride = int64(r.u64())
	nix := int(r.u32())
	if r.err != nil || nix < 0 || nix > 1<<16 {
		return nil, errors.New("sqldb: checkpoint: bad index count")
	}
	for i := 0; i < nix; i++ {
		ixname := r.str()
		col := int(r.u32())
		unique := r.u8() == 1
		if r.err != nil {
			return nil, r.err
		}
		if col < 0 || col >= len(cols) {
			return nil, errors.New("sqldb: checkpoint: index column out of range")
		}
		if err := t.addIndex(ixname, col, unique); err != nil {
			return nil, err
		}
	}
	nrows := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	for i := uint64(0); i < nrows; i++ {
		id := int64(r.u64())
		row := make(Row, ncols)
		for c := 0; c < ncols; c++ {
			row[c] = r.value()
		}
		if r.err != nil {
			return nil, r.err
		}
		t.put(id, row)
	}
	return t, r.err
}
