package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// countWS counts Sync calls through to the real wal.
type countWS struct {
	inner WriteSyncer
	syncs int
}

func (c *countWS) Write(p []byte) (int, error) { return c.inner.Write(p) }
func (c *countWS) Sync() error {
	c.syncs++
	return c.inner.Sync()
}

// TestGroupCommitBatchesFsync: under group-commit, N appends cost zero
// fsyncs until the byte threshold or an explicit Flush; per-append mode
// costs one each.
func TestGroupCommitBatchesFsync(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cw := &countWS{inner: j.out}
	j.out = cw

	// Baseline: per-append fsync.
	for i := 0; i < 3; i++ {
		if err := j.Append([]byte("solo")); err != nil {
			t.Fatal(err)
		}
	}
	if cw.syncs != 3 {
		t.Fatalf("per-append mode: %d syncs after 3 appends, want 3", cw.syncs)
	}

	// Group-commit with an unreachable window and a large byte threshold:
	// appends must not sync at all.
	if err := j.SetGroupCommit(time.Hour, 1<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := j.Append([]byte(fmt.Sprintf("batched-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if cw.syncs != 3 {
		t.Fatalf("group-commit: %d syncs after 100 appends, want still 3", cw.syncs)
	}

	// The explicit barrier flushes the batch in one fsync.
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 4 {
		t.Fatalf("after Flush: %d syncs, want 4", cw.syncs)
	}
	// An empty batch is a free barrier.
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 4 {
		t.Fatalf("empty Flush synced: %d, want 4", cw.syncs)
	}

	// The byte threshold forces a flush mid-stream.
	if err := j.SetGroupCommit(time.Hour, 64); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 5 {
		t.Fatalf("byte threshold: %d syncs, want 5", cw.syncs)
	}

	// Everything appended is durable and ordered after recovery.
	rec, err := Restore(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 104 {
		t.Fatalf("recovered %d records, want 104", len(rec.Tail))
	}
	if string(rec.Tail[3]) != "batched-0" || string(rec.Tail[102]) != "batched-99" {
		t.Fatalf("recovered records out of order: %q ... %q", rec.Tail[3], rec.Tail[102])
	}
}

// TestGroupCommitWindowFlush: the window timer syncs a lingering batch
// without any further journal calls.
func TestGroupCommitWindowFlush(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cw := &countWS{inner: j.out}
	j.out = cw
	if err := j.SetGroupCommit(5*time.Millisecond, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("lingering")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		synced := cw.syncs > 0 && j.pendingN == 0
		j.mu.Unlock()
		if synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("window timer never flushed the batch")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitDisable: switching back to per-append mode flushes the
// pending batch and restores the old cadence.
func TestGroupCommitDisable(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cw := &countWS{inner: j.out}
	j.out = cw
	if err := j.SetGroupCommit(time.Hour, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 0 {
		t.Fatalf("batched append synced: %d", cw.syncs)
	}
	if err := j.SetGroupCommit(0, 0); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 1 {
		t.Fatalf("disable must flush the batch: %d syncs, want 1", cw.syncs)
	}
	if err := j.Append([]byte("solo")); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 2 {
		t.Fatalf("per-append mode not restored: %d syncs, want 2", cw.syncs)
	}
}

// TestGroupCommitCloseFlushes: Close is a barrier; nothing acknowledged is
// lost across an orderly shutdown.
func TestGroupCommitCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cw := &countWS{inner: j.out}
	j.out = cw
	if err := j.SetGroupCommit(time.Hour, 1<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := j.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 1 {
		t.Fatalf("Close flushed %d times, want 1", cw.syncs)
	}
	rec, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 7 {
		t.Fatalf("recovered %d records, want 7", len(rec.Tail))
	}
}

// TestGroupCommitSnapshotFlushesPending: a checkpoint joins the group-commit
// batch like any record — no fsync of its own, durable with the batch — and
// recovers as the snapshot once flushed. The rewrite a checkpoint turns into
// past the wal's bound drains the batch first, so a failed rewrite cannot
// strand unsynced records.
func TestGroupCommitSnapshotFlushesPending(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cw := &countWS{inner: j.out}
	j.out = cw
	if err := j.SetGroupCommit(time.Hour, 1<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint([]byte("state-after-5")); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 0 || j.pendingN != 6 {
		t.Fatalf("checkpoint under group-commit: %d syncs, %d pending; want 0, 6", cw.syncs, j.pendingN)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != 1 {
		t.Fatalf("Flush synced %d times, want 1", cw.syncs)
	}
	rec, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "state-after-5" || len(rec.Tail) != 0 {
		t.Fatalf("recovery = snapshot %q + %d tail records", rec.Snapshot, len(rec.Tail))
	}
	// Appends after the checkpoint keep their sequence continuity.
	if err := j.Append([]byte("post-snap")); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err = Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 1 || string(rec.Tail[0]) != "post-snap" || rec.SnapSeq != 6 {
		t.Fatalf("post-checkpoint tail = %q after snapshot @%d", rec.Tail, rec.SnapSeq)
	}

	// The rewrite path: a pending batch is synced before the snapshot file
	// replaces it.
	if err := j.Append([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	syncs := cw.syncs
	if err := checkpointRewriting(j, []byte("state-after-8")); err != nil {
		t.Fatal(err)
	}
	if cw.syncs != syncs+1 || j.pendingN != 0 {
		t.Fatalf("rewrite: %d pre-flush syncs, %d still pending; want 1, 0", cw.syncs-syncs, j.pendingN)
	}
	rec, err = Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "state-after-8" || rec.SnapSeq != 9 || len(rec.Tail) != 0 {
		t.Fatalf("after the rewrite: snapshot %q @%d + %d tail records", rec.Snapshot, rec.SnapSeq, len(rec.Tail))
	}
}

// TestGroupCommitTornBatchTruncation is the torn-batch corpus: a crash that
// loses an arbitrary suffix of the unsynced batch must recover to an exact,
// bit-for-bit prefix of the appended records — a clean truncation, never a
// gap, reorder, or mutation. Every byte offset in the unsynced tail is a
// corpus entry.
func TestGroupCommitTornBatchTruncation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetGroupCommit(time.Hour, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Mixed-size records so tear offsets land in headers, payloads, and
	// exactly on frame boundaries.
	var want [][]byte
	for i := 0; i < 12; i++ {
		p := []byte(fmt.Sprintf("record-%02d-%s", i, string(make([]byte, i*7))))
		want = append(want, p)
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	// Read the wal image this process wrote (the OS page cache view — what
	// a kernel-surviving crash keeps in full, and a power cut keeps a
	// prefix of).
	img, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	for cut := 0; cut <= len(img); cut++ {
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, walName), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Restore(crash)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The recovered tail must be an exact prefix of the appended records.
		if len(rec.Tail) > len(want) {
			t.Fatalf("cut %d: recovered %d records from %d appends", cut, len(rec.Tail), len(want))
		}
		for i, p := range rec.Tail {
			if string(p) != string(want[i]) {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, p, want[i])
			}
		}
		// Reopening the crashed wal must drop the tear and keep appending
		// from the intact prefix (the bit-for-bit Restore contract after a
		// reopen, not just a read).
		j2, err := Open(crash)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := j2.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut %d: post-crash append: %v", cut, err)
		}
		j2.Close()
		rec2, err := Restore(crash)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rec2.Tail) != len(rec.Tail)+1 ||
			string(rec2.Tail[len(rec2.Tail)-1]) != "post-crash" {
			t.Fatalf("cut %d: post-crash tail has %d records", cut, len(rec2.Tail))
		}
	}
}

// TestGroupCommitBackgroundFlushFailureLatches: an fsync failure on the
// window timer's goroutine latches the journal broken, surfaced to the
// writer on its next call.
func TestGroupCommitBackgroundFlushFailureLatches(t *testing.T) {
	j, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fw := &faultyWS{inner: j.out, writeAfter: -1, syncErr: syscall.ENOSPC}
	j.out = fw
	if err := j.SetGroupCommit(2*time.Millisecond, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("doomed")); err != nil {
		t.Fatal(err) // buffered append succeeds; the flush will fail
	}
	deadline := time.Now().Add(5 * time.Second)
	for j.Broken() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background flush failure never latched broken")
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Append([]byte("after")); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after background failure = %v, want ErrBroken", err)
	}
	if err := j.Flush(); !errors.Is(err, ErrBroken) {
		t.Fatalf("flush after background failure = %v, want ErrBroken", err)
	}
}
