package journal

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func appendAll(t *testing.T, j *Journal, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := j.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

func tailStrings(r *Recovery) []string {
	out := make([]string, len(r.Tail))
	for i, p := range r.Tail {
		out[i] = string(p)
	}
	return out
}

func TestEmptyDir(t *testing.T) {
	dir := t.TempDir()
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snapshot != nil || len(r.Tail) != 0 || r.Torn {
		t.Fatalf("empty dir recovered %+v", r)
	}
	// A missing directory also recovers empty.
	r, err = Restore(filepath.Join(dir, "never-created"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Snapshot != nil || len(r.Tail) != 0 {
		t.Fatalf("missing dir recovered %+v", r)
	}
}

func TestAppendRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "one", "two", "three")
	if j.Seq() != 3 {
		t.Errorf("seq = %d, want 3", j.Seq())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"one", "two", "three"}
	if got := tailStrings(r); len(got) != 3 || got[0] != want[0] || got[2] != want[2] {
		t.Errorf("tail = %v, want %v", got, want)
	}
	if r.Snapshot != nil || r.Torn {
		t.Errorf("unexpected snapshot/torn: %+v", r)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir)
	appendAll(t, j, "a", "b")
	j.Close()
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 2 {
		t.Fatalf("reopened seq = %d, want 2", j2.Seq())
	}
	appendAll(t, j2, "c")
	j2.Close()
	r, _ := Restore(dir)
	if got := tailStrings(r); len(got) != 3 || got[2] != "c" {
		t.Errorf("tail after reopen = %v", got)
	}
}

// checkpointRewriting takes a checkpoint down the path Checkpoint takes once
// the wal has outgrown its bound: snapshot file rewritten, wal truncated.
func checkpointRewriting(j *Journal, payload []byte) error {
	j.mu.Lock()
	j.size = math.MaxInt64 / 2
	j.mu.Unlock()
	return j.Checkpoint(payload)
}

// A checkpoint below the bound is a wal append: no snapshot file, and
// recovery adopts it and replays only what follows. Past the bound the same
// call rewrites the snapshot file and empties the wal.
func TestSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir)
	appendAll(t, j, "a", "b", "c")
	if err := j.Checkpoint([]byte("state@3")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "d", "e")
	if _, err := os.Stat(filepath.Join(dir, snapName)); !os.IsNotExist(err) {
		t.Errorf("a checkpoint below the bound wrote the snapshot file (%v)", err)
	}
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Snapshot) != "state@3" || r.SnapSeq != 4 {
		t.Errorf("snapshot = %q @%d, want state@3 @4", r.Snapshot, r.SnapSeq)
	}
	if got := tailStrings(r); len(got) != 2 || got[0] != "d" || got[1] != "e" {
		t.Errorf("tail = %v, want [d e]", got)
	}

	if err := checkpointRewriting(j, []byte("state@6")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "f")
	j.Close()
	if info, err := os.Stat(filepath.Join(dir, walName)); err != nil || info.Size() != int64(headerSize+1) {
		t.Errorf("wal after the rewrite: %v, %v; want only the record after it", info, err)
	}
	r, err = Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Snapshot) != "state@6" || r.SnapSeq != 7 || len(r.Tail) != 1 || string(r.Tail[0]) != "f" {
		t.Errorf("after the rewrite: snapshot %q @%d, tail %v; want state@6 @7, [f]", r.Snapshot, r.SnapSeq, tailStrings(r))
	}
}

// A crash between the snapshot rename and the wal truncation leaves stale
// records in the wal; recovery must skip them by sequence.
func TestSnapshotNewerThanTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir)
	appendAll(t, j, "a", "b", "c")
	j.Close()
	// Write the snapshot by hand covering seq 2, leaving all three wal
	// records in place: records 1-2 are stale, record 3 is live tail.
	if err := os.WriteFile(filepath.Join(dir, snapName), frameRecord(2, []byte("state@2")), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Snapshot) != "state@2" {
		t.Fatalf("snapshot = %q", r.Snapshot)
	}
	if got := tailStrings(r); len(got) != 1 || got[0] != "c" {
		t.Errorf("tail = %v, want [c] (stale records skipped)", got)
	}
	// A snapshot strictly newer than every wal record yields an empty tail.
	os.WriteFile(filepath.Join(dir, snapName), frameRecord(9, []byte("state@9")), 0o644)
	r, err = Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tail) != 0 {
		t.Errorf("tail = %v, want empty when snapshot outruns the wal", tailStrings(r))
	}
	// Reopening for writing continues past the snapshot's sequence.
	j2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Seq() != 9 {
		t.Errorf("seq = %d, want 9 (snapshot sequence wins)", j2.Seq())
	}
}

// A torn final record — a crash mid-append — is dropped; the intact prefix
// survives, and a reopened journal overwrites the tear.
func TestTornFinalRecord(t *testing.T) {
	for _, cut := range []int{1, headerSize - 1, headerSize + 1} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			j, _ := Open(dir)
			appendAll(t, j, "alpha", "beta", "gamma")
			j.Close()
			path := filepath.Join(dir, walName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			full := len(data)
			if err := os.WriteFile(path, data[:full-cut], 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Torn {
				t.Error("torn tail not reported")
			}
			if got := tailStrings(r); len(got) != 2 || got[1] != "beta" {
				t.Errorf("tail = %v, want intact prefix [alpha beta]", got)
			}
			// Reopen and append: the torn bytes are overwritten, and a
			// subsequent restore sees a clean log again.
			j2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if j2.Seq() != 2 {
				t.Errorf("seq after tear = %d, want 2", j2.Seq())
			}
			appendAll(t, j2, "delta")
			j2.Close()
			r, _ = Restore(dir)
			if r.Torn {
				t.Error("tear survived a reopen+append")
			}
			if got := tailStrings(r); len(got) != 3 || got[2] != "delta" {
				t.Errorf("tail = %v, want [alpha beta delta]", got)
			}
		})
	}
}

// Flipping a payload byte fails the CRC; recovery stops at the corruption.
func TestCorruptRecordDetected(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir)
	appendAll(t, j, "good", "soon-corrupt")
	j.Close()
	path := filepath.Join(dir, walName)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Torn || len(r.Tail) != 1 || string(r.Tail[0]) != "good" {
		t.Errorf("recovery = torn=%v tail=%v, want torn with [good]", r.Torn, tailStrings(r))
	}
}

// A corrupt snapshot is unrecoverable (its history was truncated away) and
// must be a loud error, not a silent empty state.
func TestCorruptSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	j, _ := Open(dir)
	appendAll(t, j, "a")
	if err := checkpointRewriting(j, []byte("state")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, snapName)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, err := Restore(dir); err == nil {
		t.Error("corrupt snapshot restored without error")
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt snapshot opened without error")
	}
}

// An oversize length prefix is rejected without allocating the claimed size.
func TestOversizeRecordRejected(t *testing.T) {
	data := frameRecord(1, []byte("x"))
	data[0], data[1], data[2], data[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := readRecord(data); err == nil {
		t.Error("oversize record accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := Open(t.TempDir())
	j.Close()
	if err := j.Append([]byte("x")); err == nil {
		t.Error("append after close succeeded")
	}
	if err := j.Checkpoint([]byte("x")); err == nil {
		t.Error("checkpoint after close succeeded")
	}
}
