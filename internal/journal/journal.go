// Package journal gives the Coordinator durable control-plane state: a
// length-prefixed, CRC-checked write-ahead log plus periodic snapshots, laid
// out so that a crash at any instant — mid-append, mid-checkpoint, mid-rewrite,
// between snapshot and log truncation — loses at most the record being
// written.
//
// A journal directory holds two files:
//
//	wal       append-only records, fsynced per append (or per batch, with
//	          group-commit — see SetGroupCommit)
//	snapshot  the snapshot the wal last outgrew, written atomically (tmp +
//	          rename)
//
// Every record (in either file) is framed as
//
//	[4-byte big-endian payload length][4-byte CRC-32 (IEEE)][8-byte sequence][payload]
//
// where the CRC covers the sequence and payload. Sequence numbers increase
// by one per append, snapshots included. A snapshot is normally a
// checkpoint: an ordinary wal record whose sequence has the top bit set,
// appended like any other and exactly as durable. Recovery adopts the last
// intact checkpoint as the snapshot and replays only the records after it.
// Only when a checkpoint would grow the wal past a bound is the snapshot
// instead rewritten into the snapshot file, stamped with the sequence it
// covers, and the wal truncated; recovery then loads that file and replays
// wal records with a later sequence. A wal that still contains records or checkpoints at
// or before the file's sequence (a crash between rename and truncation)
// replays cleanly: the stale prefix is skipped. A torn final record (a crash
// mid-append, checkpoints included) is detected by its short frame or CRC
// mismatch and dropped; anything before it is intact by construction.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	walName  = "wal"
	snapName = "snapshot"

	// MaxRecord bounds a single payload.
	MaxRecord = 64 << 20

	headerSize = 4 + 4 + 8 // length + crc + seq

	// checkpointBit marks a checkpoint's sequence. Sequences count from 1 up
	// and never reach it, so journals written before checkpoints existed
	// never set it; the CRC covers it like the rest of the sequence.
	checkpointBit = 1 << 63

	// A checkpoint that would grow the wal past rewriteBound rewrites the
	// snapshot file and truncates the wal instead. The bound scales with the
	// checkpoint, so at most about rewriteEvery checkpoints' worth of wal is
	// read back at recovery however large the state grows, and a rewrite's
	// fsyncs are paid once per that many checkpoints, not once per each.
	minRewriteBytes = 1 << 20
	rewriteEvery    = 8
)

// rewriteBound is the wal size past which a checkpoint of n framed bytes
// rewrites instead of appending.
func rewriteBound(n int64) int64 { return max(minRewriteBytes, rewriteEvery*n) }

// syncDir fsyncs a directory, making the entries created or renamed in it
// durable. A variable so tests can count the calls.
var syncDir = func(dir string) error {
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

// ErrBroken marks a journal that refuses writes after a storage failure.
// Once an append write or fsync fails, the wal's on-disk tail is unknown —
// appending past a possibly-torn frame would silently orphan every later
// record at recovery — so the journal latches broken and fails fast instead.
var ErrBroken = errors.New("journal: broken")

// WriteSyncer is the wal write seam: *os.File satisfies it, and tests
// substitute error-injecting implementations to exercise the broken latch.
type WriteSyncer interface {
	io.Writer
	Sync() error
}

// DefaultGroupCommitBytes is the batch-size flush threshold SetGroupCommit
// applies when given a non-positive maxBytes.
const DefaultGroupCommitBytes = 256 << 10

// Journal is an open journal directory. The Coordinator serializes Append
// and Checkpoint under its state lock so the log order equals the
// state-mutation order; an internal mutex additionally makes every method
// safe against the group-commit window timer, which flushes from its own
// goroutine.
type Journal struct {
	mu     sync.Mutex
	dir    string
	wal    *os.File
	out    WriteSyncer // wal, unless a test injected a wrapper
	seq    uint64      // sequence of the last record written (snapshot or wal)
	size   int64       // bytes in the wal
	frame  []byte      // reused record assembly buffer: one write per record
	broken error       // first storage failure; latched, see ErrBroken

	// Group-commit state (see SetGroupCommit). While gcWindow > 0, appends
	// buffer in the OS page cache and a batch is fsynced when pendingBytes
	// reaches gcBytes or the window timer fires, whichever is first.
	gcWindow     time.Duration
	gcBytes      int
	pendingN     int // appended records not yet covered by an fsync
	pendingBytes int
	timer        *time.Timer // armed while a window flush is scheduled
}

// Open creates the directory if needed, scans any existing state to find
// the last sequence number, and opens the wal for appending.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir}
	if snap, seq, err := readSnapshotFile(filepath.Join(dir, snapName)); err != nil {
		return nil, err
	} else if snap != nil {
		j.seq = seq
	}
	// Scan the wal tail for the true last sequence (it may run past the
	// snapshot) and note where intact records end so a torn tail is
	// overwritten by the next append instead of corrupting the frame stream.
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	created := errors.Is(err, os.ErrNotExist)
	if err != nil && !created {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for rest := data; ; {
		rec, n, err := readRecord(rest)
		if err != nil {
			break // torn or absent tail: intact prefix ends here
		}
		rest = rest[n:]
		j.size += n
		j.seq = max(j.seq, rec.seq&^checkpointBit)
	}
	wal, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if created {
		// The wal's directory entry is as much a part of every record as
		// the bytes: without this a power cut could lose the whole file.
		if err := syncDir(dir); err != nil {
			wal.Close()
			return nil, fmt.Errorf("journal: sync dir: %w", err)
		}
	}
	if err := wal.Truncate(j.size); err != nil {
		wal.Close()
		return nil, fmt.Errorf("journal: drop torn tail: %w", err)
	}
	if _, err := wal.Seek(j.size, io.SeekStart); err != nil {
		wal.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.wal = wal
	j.out = wal
	return j, nil
}

// Broken returns the first storage failure that latched the journal broken,
// or nil while it is healthy.
func (j *Journal) Broken() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.broken
}

// fail latches the journal broken and returns the failure.
func (j *Journal) fail(err error) error {
	if j.broken == nil {
		j.broken = err
	}
	return err
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Seq returns the sequence number of the last record written.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// SetGroupCommit switches the journal from per-append fsync to batched
// fsync: appends buffer in the OS page cache, and the batch is synced when
// its size reaches maxBytes (DefaultGroupCommitBytes if non-positive) or
// window elapses after the batch's first append, whichever is first. A
// non-positive window restores per-append fsync.
//
// The durability contract weakens in exactly one way: a crash may lose the
// unsynced tail — the most recent appends, up to one window or one batch.
// What recovery reads is still bit-for-bit exact: records are written to the
// wal in order, so a lost tail is a clean truncation (possibly plus one torn
// record at the cut, dropped like any other tear), never a gap or a
// reordering. Restore after a mid-batch crash yields a prefix of the
// acknowledged state, the same guarantee a crash between two per-append
// fsyncs always had.
func (j *Journal) SetGroupCommit(window time.Duration, maxBytes int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if window <= 0 {
		err := j.flushLocked()
		j.gcWindow, j.gcBytes = 0, 0
		return err
	}
	if maxBytes <= 0 {
		maxBytes = DefaultGroupCommitBytes
	}
	j.gcWindow, j.gcBytes = window, maxBytes
	return nil
}

// Flush fsyncs any appends still pending under group-commit; it is the
// durability barrier callers take before acknowledging externally visible
// effects. A no-op when nothing is pending.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		return fmt.Errorf("journal: closed")
	}
	if j.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, j.broken)
	}
	return j.flushLocked()
}

// flushLocked fsyncs the pending batch. Caller holds j.mu.
func (j *Journal) flushLocked() error {
	if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	if j.pendingN == 0 {
		return nil
	}
	j.pendingN, j.pendingBytes = 0, 0
	if err := j.out.Sync(); err != nil {
		return j.fail(fmt.Errorf("journal: sync: %w", err))
	}
	return nil
}

// windowExpired is the group-commit timer callback: it flushes whatever
// batch accumulated during the window. A failure latches the journal broken,
// surfaced to the writer on its next Append.
func (j *Journal) windowExpired() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.timer = nil
	if j.wal == nil || j.broken != nil {
		return
	}
	j.flushLocked()
}

// Fail latches the journal broken with a failure the caller detected — a
// mutation it could not encode is missing from the wal, so, as after a failed
// append, every later write and Flush is refused rather than letting the wal
// silently diverge from the state it records.
func (j *Journal) Fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fail(err)
}

// writableLocked refuses a write of n payload bytes to a closed or broken
// journal, or one over MaxRecord. Caller holds j.mu.
func (j *Journal) writableLocked(n int) error {
	if j.wal == nil {
		return fmt.Errorf("journal: closed")
	}
	if j.broken != nil {
		return fmt.Errorf("%w: %v", ErrBroken, j.broken)
	}
	if n > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds limit", n)
	}
	return nil
}

// Append writes one record to the wal and makes it durable: immediately
// under the default per-append fsync, or within one group-commit window/
// batch after SetGroupCommit. Any write or fsync failure latches the journal
// broken: the record may be torn on disk, so further appends are refused
// with ErrBroken rather than silently diverging from the in-memory state.
func (j *Journal) Append(payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writableLocked(len(payload)); err != nil {
		return err
	}
	if err := j.appendLocked(j.seq+1, payload); err != nil {
		return err
	}
	j.seq++
	return nil
}

// Checkpoint records a snapshot of the state every record so far has built.
// Like a record it takes the next sequence number, so no checkpoint shares
// one with the snapshot file or with another checkpoint. It is appended to
// the wal as a checkpoint record, under the same commit
// policy as Append and exactly as durable: recovery adopts the last intact
// checkpoint and replays only what follows it, and a torn checkpoint is
// dropped like any torn record, leaving the prefix before it. Only when the
// append would grow the wal past its bound is the snapshot rewritten into
// the snapshot file and the wal truncated instead.
func (j *Journal) Checkpoint(payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.writableLocked(len(payload)); err != nil {
		return err
	}
	var err error
	if n := int64(headerSize + len(payload)); j.size+n > rewriteBound(n) {
		err = j.rewriteLocked(j.seq+1, payload)
	} else {
		err = j.appendLocked((j.seq+1)|checkpointBit, payload)
	}
	if err == nil {
		j.seq++
	}
	return err
}

// appendLocked frames one record onto the wal under the commit policy in
// force. Caller holds j.mu.
func (j *Journal) appendLocked(seq uint64, payload []byte) error {
	if err := j.writeRecord(j.out, seq, payload); err != nil {
		return j.fail(fmt.Errorf("journal: append: %w", err))
	}
	n := headerSize + len(payload)
	j.size += int64(n)
	if j.gcWindow <= 0 {
		if err := j.out.Sync(); err != nil {
			return j.fail(fmt.Errorf("journal: sync: %w", err))
		}
		return nil
	}
	j.pendingN++
	j.pendingBytes += n
	if j.pendingBytes >= j.gcBytes {
		return j.flushLocked()
	}
	if j.timer == nil {
		j.timer = time.AfterFunc(j.gcWindow, j.windowExpired)
	}
	return nil
}

// rewriteLocked atomically replaces the snapshot file with the given
// payload, stamped with sequence seq, then truncates the wal: every
// record and checkpoint the snapshot covers is now redundant. A crash between
// the rename and the truncation only leaves stale wal records, which recovery
// skips by sequence. Caller holds j.mu.
func (j *Journal) rewriteLocked(seq uint64, payload []byte) error {
	// Any group-commit batch still pending covers records the snapshot
	// subsumes; flush it so a failed rewrite leaves a fully durable wal.
	if err := j.flushLocked(); err != nil {
		return err
	}
	tmp := filepath.Join(j.dir, snapName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := j.writeRecord(f, seq, payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	// The rename must be durable before the truncation that relies on it:
	// otherwise a power cut could keep the empty wal and the old snapshot.
	// From here a failure leaves the wal position unknown, so it latches the
	// journal broken too.
	if err := syncDir(j.dir); err != nil {
		return j.fail(fmt.Errorf("journal: sync dir: %w", err))
	}
	if err := j.wal.Truncate(0); err != nil {
		return j.fail(fmt.Errorf("journal: truncate wal: %w", err))
	}
	j.size = 0
	if _, err := j.wal.Seek(0, io.SeekStart); err != nil {
		return j.fail(fmt.Errorf("journal: %w", err))
	}
	if err := j.wal.Sync(); err != nil {
		return j.fail(fmt.Errorf("journal: sync: %w", err))
	}
	return nil
}

// Close flushes any pending group-commit batch and releases the wal file
// handle.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		return nil
	}
	var ferr error
	if j.broken == nil {
		ferr = j.flushLocked()
	} else if j.timer != nil {
		j.timer.Stop()
		j.timer = nil
	}
	err := j.wal.Close()
	j.wal = nil
	if ferr != nil {
		return ferr
	}
	return err
}

// Recovery is the result of reading a journal directory: the newest
// snapshot payload — the last intact checkpoint, else the snapshot file (nil
// if neither exists) — and the wal records that postdate it, oldest first.
// Torn reports whether a partial final wal record was dropped.
type Recovery struct {
	Snapshot []byte
	SnapSeq  uint64
	Tail     [][]byte
	Torn     bool
}

// Restore reads a journal directory without opening it for writing. A
// missing or empty directory recovers to an empty state, not an error.
func Restore(dir string) (*Recovery, error) {
	r := &Recovery{}
	snap, seq, err := readSnapshotFile(filepath.Join(dir, snapName))
	if err != nil {
		return nil, err
	}
	r.Snapshot, r.SnapSeq = snap, seq
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for len(data) > 0 {
		rec, n, err := readRecord(data)
		if err != nil {
			// A short frame or CRC mismatch at the tail is a torn final
			// record: everything before it is intact, so recovery keeps
			// the prefix and drops the tear.
			r.Torn = true
			break
		}
		data = data[n:]
		seq := rec.seq &^ checkpointBit
		if r.Snapshot != nil && seq <= r.SnapSeq {
			continue // stale: already covered by the snapshot
		}
		if rec.seq&checkpointBit != 0 {
			r.Snapshot, r.SnapSeq, r.Tail = rec.payload, seq, nil
			continue
		}
		r.Tail = append(r.Tail, rec.payload)
	}
	return r, nil
}

// readSnapshotFile loads and verifies the snapshot record, or returns
// (nil, 0, nil) when no snapshot exists. A corrupt snapshot is an error —
// unlike a torn wal tail it cannot be skipped, because everything it
// covered was truncated away.
func readSnapshotFile(path string) ([]byte, uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	rec, _, err := readRecord(data)
	if err == nil && rec.seq&checkpointBit != 0 {
		err = fmt.Errorf("sequence %#x out of range", rec.seq)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: corrupt snapshot %s: %w", path, err)
	}
	return rec.payload, rec.seq, nil
}

type record struct {
	seq     uint64
	payload []byte
}

// writeRecord frames one record onto w in a single write, assembling header
// and payload in the journal's reused buffer. Caller holds j.mu.
func (j *Journal) writeRecord(w io.Writer, seq uint64, payload []byte) error {
	j.frame = appendRecord(j.frame[:0], seq, payload)
	_, err := w.Write(j.frame)
	return err
}

// appendRecord appends one framed record to b.
func appendRecord(b []byte, seq uint64, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, 0) // crc, below
	b = binary.BigEndian.AppendUint64(b, seq)
	b = append(b, payload...)
	hdr := b[len(b)-len(payload)-headerSize:]
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(hdr[8:]))
	return b
}

// readRecord parses the record at the start of b, returning it and the bytes
// consumed; the payload aliases b. An empty b is io.EOF.
func readRecord(b []byte) (record, int64, error) {
	if len(b) == 0 {
		return record{}, 0, io.EOF
	}
	if len(b) < headerSize {
		return record{}, 0, fmt.Errorf("journal: torn record header: %w", io.ErrUnexpectedEOF)
	}
	n := binary.BigEndian.Uint32(b[0:4])
	if n > MaxRecord {
		return record{}, 0, fmt.Errorf("journal: record of %d bytes exceeds limit", n)
	}
	if uint64(len(b)-headerSize) < uint64(n) {
		return record{}, 0, fmt.Errorf("journal: torn record payload: %w", io.ErrUnexpectedEOF)
	}
	end := headerSize + int(n)
	if crc32.ChecksumIEEE(b[8:end]) != binary.BigEndian.Uint32(b[4:8]) {
		return record{}, 0, fmt.Errorf("journal: record checksum mismatch")
	}
	return record{seq: binary.BigEndian.Uint64(b[8:16]), payload: b[headerSize:end:end]}, int64(end), nil
}
