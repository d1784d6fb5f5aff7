package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// foldState is the state a recovery describes when every record payload is
// one applied step and every snapshot the comma-joined steps it covers.
func foldState(r *Recovery) string {
	steps := tailStrings(r)
	if len(r.Snapshot) > 0 {
		steps = append([]string{string(r.Snapshot)}, steps...)
	}
	return strings.Join(steps, ",")
}

// journalRun appends records and checkpoints in a fixed pattern and returns
// the state after each wal byte offset at which an intact record ends.
func journalRun(t *testing.T, dir string, steps int) map[int64]string {
	t.Helper()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.SetGroupCommit(time.Hour, 1<<30); err != nil {
		t.Fatal(err)
	}
	var state []string
	at := map[int64]string{0: ""}
	for i := 0; i < steps; i++ {
		step := fmt.Sprintf("r%d", i)
		if err := j.Append([]byte(step)); err != nil {
			t.Fatal(err)
		}
		state = append(state, step)
		at[j.size] = strings.Join(state, ",")
		if i%3 == 2 {
			if err := j.Checkpoint([]byte(strings.Join(state, ","))); err != nil {
				t.Fatal(err)
			}
			at[j.size] = strings.Join(state, ",")
		}
	}
	return at
}

// Cutting the wal at every byte, across records and checkpoints alike,
// recovers exactly the state of the last intact record before the cut: a
// torn checkpoint is dropped like a torn record, leaving the prefix.
func TestCheckpointCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	at := journalRun(t, dir, 10)
	img, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for cut := 0; cut <= len(img); cut++ {
		if s, ok := at[int64(cut)]; ok {
			want = s
		}
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, walName), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Restore(crash)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := foldState(r); got != want {
			t.Fatalf("cut %d: recovered %q, want %q", cut, got, want)
		}
	}
}

// A rewrite cut short between the snapshot file's rename and the wal's
// truncation leaves every older record and checkpoint in the wal; all of them
// are at or below the file's sequence and are skipped as stale, however the
// old wal is cut. A checkpoint appended after the file is adopted over it.
func TestStaleCheckpointSkipped(t *testing.T) {
	dir := t.TempDir()
	journalRun(t, dir, 7) // r0..r6, checkpoints after r2 and r5: sequence 9
	old, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	file := frameRecord(10, []byte("r0,r1,r2,r3,r4,r5,r6"))
	for cut := 0; cut <= len(old); cut++ {
		crash := t.TempDir()
		os.WriteFile(filepath.Join(crash, snapName), file, 0o644)
		os.WriteFile(filepath.Join(crash, walName), old[:cut], 0o644)
		r, err := Restore(crash)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if r.SnapSeq != 10 || len(r.Tail) != 0 || foldState(r) != "r0,r1,r2,r3,r4,r5,r6" {
			t.Fatalf("cut %d: snapshot @%d, state %q", cut, r.SnapSeq, foldState(r))
		}
	}
	// Stale at and below the file's sequence; adopted above it.
	wal := append(frameRecord(10|checkpointBit, []byte("stale-at")), frameRecord(11, []byte("r7"))...)
	wal = append(wal, frameRecord(12|checkpointBit, []byte("r0,r1,r2,r3,r4,r5,r6,r7"))...)
	wal = append(wal, frameRecord(13, []byte("r8"))...)
	os.WriteFile(filepath.Join(dir, snapName), file, 0o644)
	os.WriteFile(filepath.Join(dir, walName), wal[:len(wal)-len(frameRecord(13, []byte("r8")))], 0o644)
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.SnapSeq != 12 || foldState(r) != "r0,r1,r2,r3,r4,r5,r6,r7" {
		t.Errorf("checkpoint above the file: snapshot @%d, state %q", r.SnapSeq, foldState(r))
	}
	os.WriteFile(filepath.Join(dir, walName), wal, 0o644)
	if r, err = Restore(dir); err != nil || foldState(r) != "r0,r1,r2,r3,r4,r5,r6,r7,r8" {
		t.Errorf("record after the checkpoint: state %q, %v", foldState(r), err)
	}
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Seq() != 13 {
		t.Errorf("reopened at sequence %d, want 13", j.Seq())
	}
}

// The wal never outgrows its bound: checkpoints append until the next one
// would cross it, which rewrites the snapshot file and empties the wal.
func TestCheckpointRewritesAtBound(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.SetGroupCommit(time.Hour, 1<<30); err != nil {
		t.Fatal(err)
	}
	snap := make([]byte, 60<<10)
	bound := rewriteBound(int64(headerSize + len(snap)))
	rewrites := 0
	for i := 0; i < 100; i++ {
		appendAll(t, j, "a", "b")
		copy(snap, fmt.Sprintf("state-%03d", i))
		before := j.size
		if err := j.Checkpoint(snap); err != nil {
			t.Fatal(err)
		}
		if j.size < before {
			rewrites++
			if j.size != 0 {
				t.Fatalf("checkpoint %d: rewrite left %d wal bytes", i, j.size)
			}
		}
		if j.size > bound {
			t.Fatalf("checkpoint %d: wal at %d bytes, bound %d", i, j.size, bound)
		}
	}
	// Each rewrite is preceded by the checkpoints that filled the wal.
	if perRewrite := int64(headerSize + len(snap) + 2*(headerSize+1)); rewrites == 0 || rewrites > int(100*perRewrite/bound)+1 {
		t.Errorf("%d rewrites in 100 checkpoints for a %d-byte bound", rewrites, bound)
	}
	r, err := Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(r.Snapshot), "state-099") || len(r.Tail) != 0 {
		t.Errorf("recovered %.9q + %d records, want the last checkpoint alone", r.Snapshot, len(r.Tail))
	}
}

// The directory is fsynced where an entry appears in it: when Open creates
// the wal and when a rewrite renames the snapshot file into place. Appended
// checkpoints create nothing and sync no directory.
func TestDirectorySync(t *testing.T) {
	var synced []string
	orig := syncDir
	syncDir = func(dir string) error {
		synced = append(synced, dir)
		return orig(dir)
	}
	defer func() { syncDir = orig }()

	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("Open of a new journal synced %q, want the directory once", synced)
	}
	appendAll(t, j, "a")
	if err := j.Checkpoint([]byte("state")); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 {
		t.Fatalf("an appended checkpoint synced the directory: %q", synced)
	}
	if err := checkpointRewriting(j, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 2 {
		t.Fatalf("a rewrite synced the directory %d times, want once", len(synced)-1)
	}
	j.Close()
	j, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(synced) != 2 {
		t.Fatalf("reopening an existing wal synced the directory: %q", synced)
	}

	// A failed directory sync after the rename latches the journal broken:
	// the wal's position relative to the snapshot is no longer known.
	syncDir = func(string) error { return os.ErrPermission }
	j, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := checkpointRewriting(j, []byte("state")); err == nil || j.Broken() == nil {
		t.Fatalf("rewrite with a failing directory sync: %v, broken %v", err, j.Broken())
	}
}
