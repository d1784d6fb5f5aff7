// Journal payload encoding. Records and snapshots are written in a binary
// form built from wire v4's primitives (uvarint-prefixed strings, big-endian
// float64s, varints) into a buffer the coordinator reuses. Every payload opens
// with a tag byte naming what follows. The JSON payloads of journals written
// before the binary form are not read: such a directory does not restore
// (DESIGN.md, "Compatibility").
//
// A binary round trip is observationally a JSON round trip (FuzzJournalCodec
// holds the two to it): a field JSON omits when empty is written only when
// set and decodes to its zero value when absent, a nil slice and an empty one
// stay apart where JSON keeps them apart, and NaN and the infinities, which
// JSON cannot carry, are refused on encode and on decode.
package coordinator

import (
	"encoding/binary"
	"fmt"

	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// Payload tags.
const (
	tagRecord   byte = 1 // one journalEvent
	tagSnapshot byte = 2 // one snapshotState
)

// recordKinds numbers the record kinds on disk: a kind's code is its index
// plus one. Append only — a code, once written, names its kind forever.
var recordKinds = [...]string{jGenesis, jRegister, jUnregister, jFlow, jCapacity, jPark, jRevive,
	jEvict, jResched, jTick, jJobQueued, jJobAdmitted, jJobDeparted}

// Presence bits of a record's optional fields, one per field JSON omits when
// empty. The bit is set exactly when JSON would write the field.
const (
	fWall uint64 = 1 << iota
	fOwner
	fRegister
	fFlows
	fDefer
	fGroups
	fHost
	fEgress
	fIngress
	fJob
	fJobID
	fHosts
	fFallback
	fAll = fFallback<<1 - 1
)

// encoder appends one binary payload, keeping the first error.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) then(b []byte, err error) {
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.b = b
}

func (e *encoder) str(s string)     { e.b = wire.AppendString(e.b, s) }
func (e *encoder) strs(ss []string) { e.b = wire.AppendStrs(e.b, ss) }
func (e *encoder) int(n int64)      { e.b = binary.AppendVarint(e.b, n) }
func (e *encoder) count(n int)      { e.b = binary.AppendUvarint(e.b, uint64(n)) }
func (e *encoder) float(f float64)  { e.then(wire.AppendFloat(e.b, f)) }
func (e *encoder) flags(bits ...bool) {
	var v byte
	for i, b := range bits {
		if b {
			v |= 1 << i
		}
	}
	e.b = append(e.b, v)
}

// Minimum encoded sizes of the repeated payload elements, for wire.Reader's
// Count: a string is at least its length byte, a float its 8 bytes.
const (
	minFlowEventBytes = 1 + 1 + 1 + 8
	minHostBytes      = 1 + 2*8
	minGroupBytes     = 1 + minRegisterBytes + 1 + 2*8 + 1
	minRegisterBytes  = 1 + 1 + 8 + 1 + 1 + 1 + 8
	minFlowStateBytes = 1 + 3*8
	minJobBytes       = minJobSpecBytes + 1 + 1 + 1 + 5*8 + 1
	minJobSpecBytes   = 3 + 6 + 8*8
)

// appendRecordPayload appends ev's binary payload to b.
func appendRecordPayload(b []byte, ev *journalEvent) ([]byte, error) {
	code := 0
	for i, k := range recordKinds {
		if k == ev.Kind {
			code = i + 1
		}
	}
	if code == 0 {
		return nil, fmt.Errorf("unknown record kind %q", ev.Kind)
	}
	var bits uint64
	for _, f := range [...]struct {
		set bool
		bit uint64
	}{
		{ev.Wall != 0, fWall}, {ev.Owner != "", fOwner}, {ev.Register != nil, fRegister},
		{len(ev.Flows) > 0, fFlows}, {ev.Defer, fDefer}, {len(ev.Groups) > 0, fGroups},
		{ev.Host != "", fHost}, {ev.Egress != 0, fEgress}, {ev.Ingress != 0, fIngress},
		{ev.Job != nil, fJob}, {ev.JobID != "", fJobID}, {len(ev.Hosts) > 0, fHosts},
		{ev.Fallback, fFallback},
	} {
		if f.set {
			bits |= f.bit
		}
	}
	e := encoder{b: append(b, tagRecord, byte(code))}
	e.float(float64(ev.At))
	e.b = binary.AppendUvarint(e.b, bits)
	if bits&fWall != 0 {
		e.int(ev.Wall)
	}
	if bits&fOwner != 0 {
		e.str(ev.Owner)
	}
	if bits&fRegister != 0 {
		e.then(wire.AppendRegister(e.b, ev.Register))
	}
	if bits&fFlows != 0 {
		e.count(len(ev.Flows))
		for i := range ev.Flows {
			e.then(wire.AppendFlowEvent(e.b, &ev.Flows[i]))
		}
	}
	if bits&fGroups != 0 {
		e.strs(ev.Groups)
	}
	if bits&fHost != 0 {
		e.str(ev.Host)
	}
	if bits&fEgress != 0 {
		e.float(float64(ev.Egress))
	}
	if bits&fIngress != 0 {
		e.float(float64(ev.Ingress))
	}
	if bits&fJob != 0 {
		e.then(wire.AppendJobSpec(e.b, ev.Job))
	}
	if bits&fJobID != 0 {
		e.str(ev.JobID)
	}
	if bits&fHosts != 0 {
		e.strs(ev.Hosts)
	}
	return e.b, e.err
}

// decodeRecord reads one WAL record payload.
func decodeRecord(p []byte) (journalEvent, error) {
	var ev journalEvent
	if len(p) < 2 || p[0] != tagRecord {
		return journalEvent{}, fmt.Errorf("not a record payload")
	}
	if code := int(p[1]); code >= 1 && code <= len(recordKinds) {
		ev.Kind = recordKinds[code-1]
	} else {
		return journalEvent{}, fmt.Errorf("unknown record kind code %d", code)
	}
	r := wire.NewReader(p[2:])
	ev.At = unit.Time(r.Float())
	bits := r.Uvarint()
	if bits&^fAll != 0 {
		return journalEvent{}, fmt.Errorf("unknown record fields %#x", bits&^fAll)
	}
	if bits&fWall != 0 {
		ev.Wall = r.Varint()
	}
	if bits&fOwner != 0 {
		ev.Owner = r.Str()
	}
	if bits&fRegister != 0 {
		reg := r.Register()
		ev.Register = &reg
	}
	if bits&fFlows != 0 {
		ev.Flows = make([]wire.FlowEvent, r.Count(minFlowEventBytes))
		for i := range ev.Flows {
			ev.Flows[i] = r.FlowEvent()
		}
	}
	ev.Defer = bits&fDefer != 0
	if bits&fGroups != 0 {
		ev.Groups = r.Strs()
	}
	if bits&fHost != 0 {
		ev.Host = r.Str()
	}
	if bits&fEgress != 0 {
		ev.Egress = unit.Rate(r.Float())
	}
	if bits&fIngress != 0 {
		ev.Ingress = unit.Rate(r.Float())
	}
	if bits&fJob != 0 {
		job := r.JobSpec()
		ev.Job = &job
	}
	if bits&fJobID != 0 {
		ev.JobID = r.Str()
	}
	if bits&fHosts != 0 {
		ev.Hosts = r.Strs()
	}
	ev.Fallback = bits&fFallback != 0
	if err := r.Done(); err != nil {
		return journalEvent{}, err
	}
	return ev, nil
}

// appendSnapshotPayload appends st's binary payload to b. A group's flow
// states are written by position in its Register's flow order, so flow IDs
// are not written twice; a group whose flows are not in that order cannot be
// encoded.
func appendSnapshotPayload(b []byte, st *snapshotState) ([]byte, error) {
	e := encoder{b: append(b, tagSnapshot)}
	e.int(st.Wall)
	e.float(float64(st.At))
	e.count(len(st.Hosts))
	for _, h := range st.Hosts {
		e.str(h.Name)
		e.float(float64(h.Egress))
		e.float(float64(h.Ingress))
	}
	e.b = wire.AppendSliceLen(e.b, len(st.Groups), st.Groups == nil)
	for i := range st.Groups {
		g := &st.Groups[i]
		e.str(g.Owner)
		e.then(wire.AppendRegister(e.b, &g.Register))
		e.flags(g.Parked, g.RefSet)
		e.float(float64(g.Reference))
		e.float(float64(g.Tardiness))
		if g.Flows != nil && len(g.Flows) != len(g.Register.Flows) {
			return nil, fmt.Errorf("group %q: %d flow states for %d flows", g.Register.GroupID, len(g.Flows), len(g.Register.Flows))
		}
		e.b = wire.AppendSliceLen(e.b, len(g.Flows), g.Flows == nil)
		for k := range g.Flows {
			f := &g.Flows[k]
			if f.ID != g.Register.Flows[k].ID {
				return nil, fmt.Errorf("group %q: flow %q out of register order", g.Register.GroupID, f.ID)
			}
			e.flags(f.Released, f.Finished)
			e.float(float64(f.Remaining))
			e.float(float64(f.Rate))
			e.float(float64(f.Release))
		}
	}
	e.flags(st.Jobs != nil)
	if st.Jobs != nil {
		e.int(int64(st.Jobs.Seq))
		for _, jobs := range [...][]snapshotJob{st.Jobs.Pending, st.Jobs.Admitted} {
			e.count(len(jobs))
			for k := range jobs {
				j := &jobs[k]
				e.then(wire.AppendJobSpec(e.b, &j.Spec))
				e.str(j.Owner)
				e.int(int64(j.Seq))
				e.flags(j.EstStable)
				for _, f := range [...]float64{float64(j.Arrival), float64(j.Est), float64(j.Bytes),
					float64(j.Demand), float64(j.AdmittedAt)} {
					e.float(f)
				}
				e.strs(j.Hosts)
			}
		}
	}
	return e.b, e.err
}

// decodeSnapshot reads one snapshot payload.
func decodeSnapshot(p []byte) (snapshotState, error) {
	var st snapshotState
	if len(p) < 1 || p[0] != tagSnapshot {
		return snapshotState{}, fmt.Errorf("not a snapshot payload")
	}
	r := wire.NewReader(p[1:])
	st.Wall, st.At = r.Varint(), unit.Time(r.Float())
	if n := r.Count(minHostBytes); n > 0 {
		st.Hosts = make([]snapshotHost, n)
		for i := range st.Hosts {
			st.Hosts[i] = snapshotHost{Name: r.Str(), Egress: unit.Rate(r.Float()), Ingress: unit.Rate(r.Float())}
		}
	}
	if n, isNil := r.SliceLen(minGroupBytes); !isNil {
		st.Groups = make([]snapshotGroup, n)
	}
	for i := range st.Groups {
		g := &st.Groups[i]
		g.Owner, g.Register = r.Str(), r.Register()
		fl := r.Byte()
		g.Parked, g.RefSet = fl&1 != 0, fl&2 != 0
		g.Reference, g.Tardiness = unit.Time(r.Float()), unit.Time(r.Float())
		n, isNil := r.SliceLen(minFlowStateBytes)
		if isNil {
			continue
		}
		if n != len(g.Register.Flows) {
			return snapshotState{}, fmt.Errorf("group %q: %d flow states for %d flows", g.Register.GroupID, n, len(g.Register.Flows))
		}
		g.Flows = make([]snapshotFlow, n)
		for k := range g.Flows {
			fl := r.Byte()
			g.Flows[k] = snapshotFlow{ID: g.Register.Flows[k].ID, Released: fl&1 != 0, Finished: fl&2 != 0,
				Remaining: unit.Bytes(r.Float()), Rate: unit.Rate(r.Float()), Release: unit.Time(r.Float())}
		}
	}
	if r.Byte() != 0 {
		st.Jobs = &snapshotJobs{Seq: r.Int()}
		for _, jobs := range [...]*[]snapshotJob{&st.Jobs.Pending, &st.Jobs.Admitted} {
			if n := r.Count(minJobBytes); n > 0 { // omitempty: no jobs decode as nil
				*jobs = make([]snapshotJob, n)
			}
			for k := range *jobs {
				j := &(*jobs)[k]
				j.Spec, j.Owner, j.Seq = r.JobSpec(), r.Str(), r.Int()
				j.EstStable = r.Byte()&1 != 0
				j.Arrival, j.Est = unit.Time(r.Float()), unit.Time(r.Float())
				j.Bytes, j.Demand, j.AdmittedAt = unit.Bytes(r.Float()), unit.Rate(r.Float()), unit.Time(r.Float())
				j.Hosts = r.Strs()
			}
		}
	}
	if err := r.Done(); err != nil {
		return snapshotState{}, err
	}
	return st, nil
}
