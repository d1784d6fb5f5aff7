package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// frameRecord builds one on-disk record frame for seed corpora.
func frameRecord(seq uint64, payload []byte) []byte {
	return appendRecord(nil, seq, payload)
}

// FuzzRestore throws arbitrary snapshot and wal bytes at recovery. Restore
// must never panic and never invent records; whenever it succeeds, the
// directory must also be openable for appending, and an append must extend
// exactly the recovered tail — the torn/stale bytes Restore skipped must
// stay invisible.
func FuzzRestore(f *testing.F) {
	snap := frameRecord(3, []byte(`{"snap":true}`))
	recs := append(frameRecord(4, []byte("r4")), frameRecord(5, []byte("r5"))...)

	// Clean states: snapshot + newer wal, wal only, snapshot only.
	f.Add(snap, recs)
	f.Add([]byte(nil), recs)
	f.Add(snap, []byte(nil))
	// Stale wal prefix at or before the snapshot sequence (crash between
	// snapshot rename and wal truncation).
	f.Add(snap, append(frameRecord(2, []byte("stale")), recs...))
	// Torn tails: mid-header and mid-payload.
	f.Add(snap, append(append([]byte(nil), recs...), frameRecord(6, []byte("torn"))[:7]...))
	f.Add(snap, append(append([]byte(nil), recs...), frameRecord(6, []byte("torn-payload"))[:headerSize+4]...))
	// Flipped CRC byte in the final record.
	bad := append([]byte(nil), recs...)
	bad[len(bad)-len(frameRecord(5, []byte("r5")))+5] ^= 0xFF
	f.Add(snap, bad)
	// Oversize length prefix.
	f.Add(snap, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	// Checkpoints: adopted over the file, stale at or below it, torn.
	cp := frameRecord(6|checkpointBit, []byte(`{"cp":6}`))
	f.Add(snap, append(append(append([]byte(nil), recs...), cp...), frameRecord(7, []byte("r7"))...))
	f.Add([]byte(nil), append(append([]byte(nil), cp...), frameRecord(7, []byte("r7"))...))
	f.Add(snap, append(frameRecord(3|checkpointBit, []byte("stale")), recs...))
	f.Add(snap, append(append([]byte(nil), recs...), cp[:headerSize+3]...))
	// Corrupt snapshot (unrecoverable by design).
	f.Add([]byte("not a snapshot"), recs)

	f.Fuzz(func(t *testing.T, snapData, walData []byte) {
		dir := t.TempDir()
		if len(snapData) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapName), snapData, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if len(walData) > 0 {
			if err := os.WriteFile(filepath.Join(dir, walName), walData, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := Restore(dir)
		if err != nil {
			return // corrupt snapshots fail cleanly; that is the contract
		}
		again, err := Restore(dir)
		if err != nil || !reflect.DeepEqual(r, again) {
			t.Fatalf("Restore is not idempotent: %+v / %v vs %+v", r, err, again)
		}

		// A restorable directory must be appendable: Open drops the same
		// torn/stale bytes, and a fresh append lands right after the
		// recovered tail.
		j, err := Open(dir)
		if err != nil {
			t.Fatalf("Restore succeeded but Open failed: %v", err)
		}
		payload := []byte("appended-after-recovery")
		if err := j.Append(payload); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := Restore(dir)
		if err != nil {
			t.Fatalf("Restore after append: %v", err)
		}
		if r2.Torn {
			t.Fatal("append rewrote the tail but Restore still reports a tear")
		}
		want := append(append([][]byte{}, r.Tail...), payload)
		if !reflect.DeepEqual(r2.Tail, want) {
			t.Fatalf("append did not extend the recovered tail:\nbefore %q\nafter  %q", r.Tail, r2.Tail)
		}
		if !bytes.Equal(r2.Snapshot, r.Snapshot) || r2.SnapSeq != r.SnapSeq {
			t.Fatal("append changed the recovered snapshot")
		}
	})
}

// FuzzReadRecord checks the frame parser alone: arbitrary bytes must never
// panic or over-allocate, and any record it accepts must re-frame to the
// exact bytes consumed.
func FuzzReadRecord(f *testing.F) {
	f.Add(frameRecord(1, []byte("payload")))
	f.Add(frameRecord(0, nil))
	f.Add(frameRecord(1, []byte("payload"))[:5])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := readRecord(data)
		if err != nil {
			return
		}
		if n > int64(len(data)) {
			t.Fatalf("claimed to consume %d of %d bytes", n, len(data))
		}
		if got := frameRecord(rec.seq, rec.payload); !bytes.Equal(got, data[:n]) {
			t.Fatalf("accepted record does not re-frame to its input:\n%x\nvs\n%x", got, data[:n])
		}
		var hdrLen uint32 = binary.BigEndian.Uint32(data[0:4])
		if int64(hdrLen) != n-headerSize {
			t.Fatalf("consumed %d payload bytes but header declared %d", n-headerSize, hdrLen)
		}
	})
}
