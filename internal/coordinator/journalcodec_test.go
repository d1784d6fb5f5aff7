package coordinator

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unicode/utf8"

	"echelonflow/internal/journal"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// validStrings reports whether every exported string reachable from v is
// valid UTF-8. JSON replaces invalid bytes with U+FFFD, lossy by design, so
// only such values have a JSON round trip to compare against.
func validStrings(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		return utf8.ValidString(v.String())
	case reflect.Pointer:
		return v.IsNil() || validStrings(v.Elem())
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if !validStrings(v.Index(i)) {
				return false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() && !validStrings(v.Field(i)) {
				return false
			}
		}
	}
	return true
}

// binaryDomain reports whether the binary encoding can carry ev: every kind
// and flow event the coordinator journals. JSON also carries kinds and event
// names nothing writes, which replay refuses anyway.
func binaryDomain(ev *journalEvent) bool {
	kind := false
	for _, k := range recordKinds {
		kind = kind || k == ev.Kind
	}
	for _, f := range ev.Flows {
		switch f.Event {
		case wire.EventReleased, wire.EventFinished, wire.EventResumed:
		default:
			return false
		}
	}
	return kind
}

// snapshotDomain reports whether every group's flow states follow its
// register's flow order, as snapshotLocked writes them: the binary encoding
// stores them by position.
func snapshotDomain(st *snapshotState) bool {
	for _, g := range st.Groups {
		if g.Flows == nil {
			continue
		}
		if len(g.Flows) != len(g.Register.Flows) {
			return false
		}
		for k := range g.Flows {
			if g.Flows[k].ID != g.Register.Flows[k].ID {
				return false
			}
		}
	}
	return true
}

// checkRoundTrips encodes v both ways and decodes both: the codecs must agree
// on acceptance (inside the binary domain) and, on accept, decode equal.
func checkRoundTrips[T any](t *testing.T, v *T, inDomain bool,
	encode func([]byte, *T) ([]byte, error), decode func([]byte) (T, error)) {
	t.Helper()
	if !validStrings(reflect.ValueOf(v)) {
		return
	}
	raw, jerr := json.Marshal(v)
	bin, berr := encode(nil, v)
	if jerr != nil || berr != nil {
		if (jerr == nil) != (berr == nil) && inDomain {
			t.Fatalf("codecs disagree on acceptance: json %v, binary %v\n%+v", jerr, berr, *v)
		}
		return
	}
	var viaJSON T
	if err := json.Unmarshal(raw, &viaJSON); err != nil {
		t.Fatalf("JSON %s does not decode: %v", raw, err)
	}
	viaBin, err := decode(bin)
	if err != nil {
		t.Fatalf("binary %x does not decode: %v", bin, err)
	}
	if !reflect.DeepEqual(viaJSON, viaBin) {
		t.Fatalf("round trips differ:\njson   %+v\nbinary %+v", viaJSON, viaBin)
	}
}

// journalSeeds is every payload in the parent's journal fixtures, records
// and snapshots alike, each followed by its corruptions: its JSON encoding
// (the form of journals written before the binary encoding, which no longer
// restore), and the payload one byte short, cut in half, and one byte long.
func journalSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	add := func(p []byte, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, p, raw, p[:len(p)-1], p[:len(p)/2], append(append([]byte(nil), p...), 0))
	}
	for _, dir := range []string{"journal-pr30/tail", "journal-pr30/compacted"} {
		rec, err := journal.Restore(filepath.Join("testdata", dir))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot != nil {
			st, err := decodeSnapshot(rec.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			add(rec.Snapshot, &st)
		}
		for _, p := range rec.Tail {
			ev, err := decodeRecord(p)
			if err != nil {
				t.Fatal(err)
			}
			add(p, &ev)
		}
	}
	return seeds
}

// FuzzJournalCodec: arbitrary bytes through the record and snapshot decoders
// never panic and never allocate more than a constant factor of their size;
// every record or snapshot they yield round-trips through the binary
// encoding exactly as through JSON — nil versus empty, omitted fields, and
// the refusal of non-finite floats included. Seeded from the parent's
// fixtures, their corruptions, and hand-built corners.
func FuzzJournalCodec(f *testing.F) {
	for _, p := range journalSeeds(f) {
		f.Add(p)
	}
	corners := []snapshotState{
		{Groups: []snapshotGroup{}},
		{Groups: []snapshotGroup{{Owner: "a", Register: wire.Register{GroupID: "g", Flows: []wire.FlowSpec{}}, Flows: []snapshotFlow{}}}},
		{Groups: []snapshotGroup{{Register: wire.Register{GroupID: "g"}}}, Jobs: &snapshotJobs{Seq: 3}},
	}
	for i := range corners {
		bin, err := appendSnapshotPayload(nil, &corners[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	rec, err := appendRecordPayload(nil, &journalEvent{Kind: jCapacity, At: 1, Host: "w1", Egress: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	nan := append([]byte(nil), rec...)
	copy(nan[2:10], []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1}) // At's bits: a NaN
	f.Add(nan)
	f.Add([]byte{tagSnapshot, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // huge group count

	f.Fuzz(func(t *testing.T, p []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ev, rerr := decodeRecord(p)
		st, serr := decodeSnapshot(p)
		runtime.ReadMemStats(&m1)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 64*uint64(len(p))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(p), grew)
		}
		if rerr == nil {
			checkRoundTrips(t, &ev, binaryDomain(&ev), appendRecordPayload, decodeRecord)
		}
		if serr == nil {
			checkRoundTrips(t, &st, snapshotDomain(&st), appendSnapshotPayload, decodeSnapshot)
		}
	})
}

// The binary encoders refuse the values JSON refuses — NaN and the
// infinities — wherever they sit in a record or a snapshot.
func TestJournalCodecRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		evs := []journalEvent{
			{Kind: jFlow, At: unit.Time(v)},
			{Kind: jCapacity, Host: "w1", Ingress: unit.Rate(v)},
			{Kind: jFlow, Flows: []wire.FlowEvent{{GroupID: "g", FlowID: "f", Event: wire.EventResumed, Offset: unit.Bytes(v)}}},
			{Kind: jRegister, Register: &wire.Register{GroupID: "g", Weight: v}},
			{Kind: jJobQueued, Job: &wire.JobSpec{ID: "j", Declared: unit.Time(v)}},
		}
		for i := range evs {
			if _, err := appendRecordPayload(nil, &evs[i]); err == nil {
				t.Errorf("record %d with %v encoded", i, v)
			}
		}
		reg := wire.Register{GroupID: "g", Flows: []wire.FlowSpec{{ID: "f"}}}
		sts := []snapshotState{
			{At: unit.Time(v)},
			{Hosts: []snapshotHost{{Name: "w1", Egress: unit.Rate(v)}}},
			{Groups: []snapshotGroup{{Register: reg, Flows: []snapshotFlow{{ID: "f", Remaining: unit.Bytes(v)}}}}},
			{Jobs: &snapshotJobs{Pending: []snapshotJob{{Spec: wire.JobSpec{ID: "j"}, Demand: unit.Rate(v)}}}},
		}
		for i := range sts {
			if _, err := appendSnapshotPayload(nil, &sts[i]); err == nil {
				t.Errorf("snapshot %d with %v encoded", i, v)
			}
		}
	}
}
