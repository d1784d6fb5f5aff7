package journal

import (
	"bytes"
	"errors"
	"syscall"
	"testing"
)

// faultyWS wraps the real wal WriteSyncer, failing writes after a byte
// budget and/or failing Sync — the error-injection seam for the broken
// latch. Bytes under the budget still reach the underlying file, so the
// on-disk state after a mid-append failure is a genuinely torn frame.
type faultyWS struct {
	inner      WriteSyncer
	writeAfter int // fail writes once this many bytes went through (-1 never)
	written    int
	writeErr   error
	syncErr    error
}

func (f *faultyWS) Write(p []byte) (int, error) {
	if f.writeAfter >= 0 && f.written+len(p) > f.writeAfter {
		n := f.writeAfter - f.written
		if n > 0 {
			n, _ = f.inner.Write(p[:n])
		} else {
			n = 0
		}
		f.written += n
		return n, f.writeErr
	}
	n, err := f.inner.Write(p)
	f.written += n
	return n, err
}

func (f *faultyWS) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.inner.Sync()
}

func TestAppendFsyncFailureLatchesBroken(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("healthy")); err != nil {
		t.Fatal(err)
	}

	// ENOSPC on fsync: the append must fail and latch the journal broken.
	fw := &faultyWS{inner: j.out, writeAfter: -1, syncErr: syscall.ENOSPC}
	j.out = fw
	err = j.Append([]byte("doomed"))
	if err == nil || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append error = %v, want ENOSPC", err)
	}
	if j.Broken() == nil {
		t.Fatal("journal must latch broken after an fsync failure")
	}

	// Even with healthy storage again, further writes are refused: the
	// synced prefix of the wal is unknown.
	fw.syncErr = nil
	if err := j.Append([]byte("late")); !errors.Is(err, ErrBroken) {
		t.Fatalf("post-failure append error = %v, want ErrBroken", err)
	}
	if err := j.Checkpoint([]byte("snap")); !errors.Is(err, ErrBroken) {
		t.Fatalf("post-failure checkpoint error = %v, want ErrBroken", err)
	}
	if got := j.Seq(); got != 1 {
		t.Errorf("seq = %d, want 1 (failed append must not advance it)", got)
	}

	// Recovery drops the unsynced suffix's tear (if any) and keeps the
	// intact prefix.
	rec, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) < 1 || string(rec.Tail[0]) != "healthy" {
		t.Fatalf("recovery tail = %q, want the pre-failure record first", rec.Tail)
	}
}

func TestMidAppendWriteFailureLatchesBroken(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}

	// Fail mid-frame: a few header bytes land on disk, then the device
	// errors. The wal now ends in a torn record.
	fw := &faultyWS{inner: j.out, writeAfter: 6, writeErr: syscall.EIO}
	j.out = fw
	if err := j.Append([]byte("torn-record-payload")); err == nil || !errors.Is(err, syscall.EIO) {
		t.Fatalf("append error = %v, want EIO", err)
	}
	if j.Broken() == nil {
		t.Fatal("journal must latch broken after a mid-append write failure")
	}
	if err := j.Append([]byte("after")); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after tear = %v, want ErrBroken", err)
	}

	// Recovery keeps the intact record and reports the torn tail.
	rec, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 1 || string(rec.Tail[0]) != "first" {
		t.Fatalf("recovery tail = %q, want exactly the intact record", rec.Tail)
	}
	if !rec.Torn {
		t.Error("recovery must flag the torn tail")
	}
}

func TestWriteRecordRoundTripThroughSeam(t *testing.T) {
	// The seam must not change framing: a record written through a plain
	// buffer WriteSyncer reads back bit-identical.
	var buf bytes.Buffer
	ws := nopSync{&buf}
	if err := (&Journal{}).writeRecord(ws, 7, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	rec, n, err := readRecord(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rec.seq != 7 || string(rec.payload) != "payload" || n != int64(headerSize+7) {
		t.Fatalf("round trip = %+v (%d bytes)", rec, n)
	}
}

type nopSync struct{ *bytes.Buffer }

func (nopSync) Sync() error { return nil }
