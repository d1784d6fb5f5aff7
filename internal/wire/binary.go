// Binary framing, protocol version 4: every frame but the handshake's.
//
// A binary frame is a fixed 8-byte header followed by the body:
//
//	[0] 0xEC       magic; never a legal first byte of a JSON length prefix
//	[1] kind       message kind (kind* constants, mirrors Message.Type)
//	[2:4] flags    big-endian; bit 0 = heartbeat payload present
//	[4:8] length   big-endian body length, <= MaxFrame
//
// Bodies are hand-rolled field encodings: uvarint-length-prefixed strings,
// big-endian float64 for scalar quantities, varint counters. The cold,
// structurally open-ended types (register, submit_job) use AppendRegister and
// AppendJobSpec, the same encodings the journal keeps.
//
// A binary round trip is observationally a JSON round trip of the same
// struct (the cross-codec tests hold it to that, with encoding/json as the
// reference): the encoders reject the values json.Marshal rejects (NaN and
// infinite floats), and the decoders reproduce JSON's round-trip
// canonicalizations (a heartbeat's pointer presence, a nil versus empty
// allocation map, an empty host list decoding as nil).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"echelonflow/internal/unit"
)

// Frame constants.
const (
	binaryMagic      = 0xEC
	binaryHeaderSize = 8

	// flagHeartbeatPayload marks a heartbeat frame that carries a Heartbeat
	// payload (possibly with nonce 0); without it the heartbeat is a bare
	// keepalive, mirroring a nil *Heartbeat in the JSON envelope.
	flagHeartbeatPayload uint16 = 1 << 0
)

// Message kinds, one per binary-framed Message.Type; a hello has none, being
// JSON-framed (handshake.go).
const (
	kindRegister   = 2
	kindUnregister = 3
	kindFlowEvent  = 4
	kindAllocation = 5
	kindHeartbeat  = 6
	kindError      = 7
	kindSubmitJob  = 8
	kindJobUpdate  = 9
	kindFlowBatch  = 10
)

// Compact flow-event codes (wire only; the structs keep their strings).
const (
	evReleased = 1
	evFinished = 2
	evResumed  = 3
)

// Compact job-status codes.
const (
	jsQueued   = 1
	jsAdmitted = 2
	jsRejected = 3
	jsDeparted = 4
)

// maxInternedNames bounds the per-codec intern table. A full table is
// emptied and refilled, so a long-lived peer whose job IDs churn keeps its
// current names interned instead of the first 4096 it ever sent.
const maxInternedNames = 4096

// appendBinaryFrame appends one framed message to b, which the caller hands
// to the stream as a single write. The message is assumed Validate()-clean.
func appendBinaryFrame(b []byte, m *Message) ([]byte, error) {
	var kind byte
	var flags uint16
	switch m.Type {
	case TypeRegister:
		kind = kindRegister
	case TypeUnregister:
		kind = kindUnregister
	case TypeFlowEvent:
		kind = kindFlowEvent
	case TypeAllocation:
		kind = kindAllocation
	case TypeHeartbeat:
		kind = kindHeartbeat
		if m.Heartbeat != nil {
			flags |= flagHeartbeatPayload
		}
	case TypeError:
		kind = kindError
	case TypeSubmitJob:
		kind = kindSubmitJob
	case TypeJobUpdate:
		kind = kindJobUpdate
	case TypeFlowBatch:
		kind = kindFlowBatch
	default:
		return nil, fmt.Errorf("wire: no binary encoding for type %q", m.Type)
	}
	start := len(b)
	b = append(b, binaryMagic, kind, byte(flags>>8), byte(flags), 0, 0, 0, 0)
	body, err := appendBinaryBody(b, m)
	if err != nil {
		return nil, err
	}
	b = body
	n := len(b) - start - binaryHeaderSize
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start+4:start+8], uint32(n))
	return b, nil
}

// appendBinaryBody appends the body for m's type.
func appendBinaryBody(b []byte, m *Message) ([]byte, error) {
	switch m.Type {
	case TypeRegister:
		return AppendRegister(b, m.Register)
	case TypeUnregister:
		return AppendString(b, m.Unregister.GroupID), nil
	case TypeFlowEvent:
		return AppendFlowEvent(b, m.FlowEvent)
	case TypeAllocation:
		return appendAllocation(b, m.Allocation)
	case TypeHeartbeat:
		if m.Heartbeat == nil {
			return b, nil
		}
		return binary.AppendUvarint(b, m.Heartbeat.Nonce), nil
	case TypeError:
		b = AppendString(b, m.Error.Msg)
		return AppendString(b, m.Error.Code), nil
	case TypeSubmitJob:
		return AppendJobSpec(b, &m.SubmitJob.Job)
	case TypeJobUpdate:
		return appendJobUpdate(b, m.JobUpdate)
	case TypeFlowBatch:
		b = binary.AppendUvarint(b, uint64(len(m.FlowBatch.Events)))
		var err error
		for i := range m.FlowBatch.Events {
			if b, err = AppendFlowEvent(b, &m.FlowBatch.Events[i]); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	return nil, fmt.Errorf("wire: no binary encoding for type %q", m.Type)
}

// AppendFlowEvent appends one flow event's binary encoding. It refuses an
// unknown event kind and a non-finite offset.
func AppendFlowEvent(b []byte, e *FlowEvent) ([]byte, error) {
	var code byte
	switch e.Event {
	case EventReleased:
		code = evReleased
	case EventFinished:
		code = evFinished
	case EventResumed:
		code = evResumed
	default:
		return nil, fmt.Errorf("wire: unknown flow event %q", e.Event)
	}
	b = AppendString(b, e.GroupID)
	b = AppendString(b, e.FlowID)
	b = append(b, code)
	return AppendFloat(b, float64(e.Offset))
}

func appendAllocation(b []byte, a *Allocation) ([]byte, error) {
	// A nil map and an empty map are distinct on the wire, exactly as they
	// are in JSON ("rates":null versus "rates":{}).
	if a.Rates == nil {
		return append(b, 0), nil
	}
	b = append(b, 1)
	b = binary.AppendUvarint(b, uint64(len(a.Rates)))
	var err error
	for id, r := range a.Rates {
		b = AppendString(b, id)
		if b, err = AppendFloat(b, float64(r)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendJobUpdate(b []byte, u *JobUpdate) ([]byte, error) {
	var code byte
	switch u.Status {
	case JobQueued:
		code = jsQueued
	case JobAdmitted:
		code = jsAdmitted
	case JobRejected:
		code = jsRejected
	case JobDeparted:
		code = jsDeparted
	default:
		return nil, fmt.Errorf("wire: unknown job status %q", u.Status)
	}
	b = AppendString(b, u.JobID)
	b = append(b, code)
	b = AppendStrs(b, u.Hosts)
	return AppendString(b, u.Reason), nil
}

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat appends f as its big-endian IEEE-754 bits. It refuses the
// values json.Marshal refuses (NaN and the infinities), so every binary
// encoding accepts exactly what its JSON twin accepts.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if !finite(f) {
		return nil, errUnsupportedFloat
	}
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f)), nil
}

// finite reports whether f is neither NaN nor infinite: x-x is 0 for every
// finite x and NaN for the rest.
func finite(f float64) bool { return f-f == 0 }

// The float errors are values, not formatted, so that AppendFloat and
// Reader.Float stay small enough to inline into the per-message codecs.
var (
	errUnsupportedFloat = errors.New("wire: marshal: unsupported value: NaN or infinite float")
	errNonFiniteFloat   = errors.New("wire: non-finite float")
)

// kindTypes names each binary frame kind's message type.
var kindTypes = [...]string{kindRegister: TypeRegister, kindUnregister: TypeUnregister,
	kindFlowEvent: TypeFlowEvent, kindAllocation: TypeAllocation, kindHeartbeat: TypeHeartbeat, kindError: TypeError,
	kindSubmitJob: TypeSubmitJob, kindJobUpdate: TypeJobUpdate, kindFlowBatch: TypeFlowBatch}

// decodeBinary decodes one binary frame body into m. Strings that recur on
// the hot path (group and flow IDs, host names) are interned on the codec so
// steady-state decodes stop allocating them.
func (c *Codec) decodeBinary(kind byte, flags uint16, body []byte, m *Message) error {
	if int(kind) >= len(kindTypes) || kindTypes[kind] == "" {
		return fmt.Errorf("wire: unknown binary frame kind %d", kind)
	}
	r := Reader{b: body, names: c}
	switch kind {
	case kindRegister:
		reg := r.Register()
		m.Register = &reg
	case kindSubmitJob:
		m.SubmitJob = &SubmitJob{Job: r.JobSpec()}
	case kindUnregister:
		m.Unregister = &Unregister{GroupID: r.Str()}
	case kindFlowEvent:
		ev := r.FlowEvent()
		m.FlowEvent = &ev
	case kindAllocation:
		m.Allocation = r.allocation()
	case kindHeartbeat:
		if flags&flagHeartbeatPayload != 0 {
			m.Heartbeat = &Heartbeat{Nonce: r.Uvarint()}
		}
	case kindError:
		m.Error = &Error{Msg: r.Str(), Code: r.Str()}
	case kindJobUpdate:
		m.JobUpdate = r.jobUpdate()
	case kindFlowBatch:
		evs := make([]FlowEvent, r.Count(minFlowEventBytes))
		for i := range evs {
			evs[i] = r.FlowEvent()
		}
		m.FlowBatch = &FlowBatch{Events: evs}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("wire: decode %s: %w", kindTypes[kind], err)
	}
	m.Type = kindTypes[kind]
	return nil
}

// intern returns the canonical copy of raw, remembering it in a table of at
// most maxInternedNames names, which starts afresh when full. The map lookup
// with a string(raw) key does not allocate; only a name the table does not
// hold costs its copy. A nil codec interns nothing.
func (c *Codec) intern(raw []byte) string {
	if c == nil {
		return string(raw)
	}
	if s, ok := c.names[string(raw)]; ok {
		return s
	}
	s := string(raw)
	switch {
	case c.names == nil:
		c.names = make(map[string]string, 64)
	case len(c.names) >= maxInternedNames:
		clear(c.names)
	}
	c.names[s] = s
	return s
}

// Reader is a bounds-checked cursor over a binary body: the decoding half of
// the Append functions, shared by the frame codec and by any other binary
// encoding built from the same primitives. It keeps the first failure: every
// read after one returns a zero value, and Done reports it, so a decoder reads
// field after field and checks once. No count it returns can make a caller
// allocate more than a constant factor of the body's size.
type Reader struct {
	b     []byte
	names *Codec // interns decoded strings when set (the frame decoder's)
	err   error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Done reports the first failed read, or the bytes left unread after what
// should have been the whole body.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

var errShortBody = errors.New("wire: binary body truncated")

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errShortBody)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads one signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errShortBody)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a signed varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("wire: integer %d overflows int", v))
		return 0
	}
	return int(v)
}

// Count reads an element count, refusing one whose elements, at least
// minSize encoded bytes each, could not fit in the unread bytes: such a count
// is malformed, and refusing it bounds the caller's allocation by the body's
// size.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/max(minSize, 1)) {
		r.fail(fmt.Errorf("wire: count %d exceeds body", n))
		return 0
	}
	return int(n)
}

// Minimum encoded sizes of repeated elements, for Count: a string is at least
// its length byte, a float its 8 bytes.
const (
	minStringBytes    = 1
	minFloatBytes     = 8
	minFlowEventBytes = 2*minStringBytes + 1 + minFloatBytes
	minRateBytes      = minStringBytes + minFloatBytes
	minFlowSpecBytes  = 3*minStringBytes + minFloatBytes + 1
)

// AppendSliceLen appends a slice length that keeps a nil slice and an empty
// one apart, as JSON's null and [] do: 0 for nil, n+1 otherwise.
func AppendSliceLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// SliceLen reads a length written by AppendSliceLen, bounded like Count.
func (r *Reader) SliceLen(minSize int) (n int, isNil bool) {
	v := r.Uvarint()
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(r.b)/max(minSize, 1)) {
		r.fail(fmt.Errorf("wire: count %d exceeds body", v-1))
		return 0, true
	}
	return int(v - 1), false
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail(errShortBody)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Float reads one float written by AppendFloat. NaN and the infinities are
// refused, as a JSON decoder refuses them: no encoder writes them, so their
// bits on the wire are corruption or a hostile peer, and letting one through
// would poison whatever arithmetic reads it.
func (r *Reader) Float() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail(errShortBody) // keeps an earlier failure
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.b))
	r.b = r.b[8:]
	if !finite(v) {
		r.fail(errNonFiniteFloat)
		return 0
	}
	return v
}

// Str reads one string written by AppendString.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail(errShortBody)
		return ""
	}
	s := r.names.intern(r.b[:n])
	r.b = r.b[n:]
	return s
}

// AppendStrs appends a count and then each string.
func AppendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// Strs reads strings written by AppendStrs. Zero strings decode as nil,
// matching what JSON's omitempty round trip yields.
func (r *Reader) Strs() []string {
	n := r.Count(minStringBytes)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.Str()
	}
	return ss
}

// FlowEvent reads one flow event written by AppendFlowEvent.
func (r *Reader) FlowEvent() FlowEvent {
	ev := FlowEvent{GroupID: r.Str(), FlowID: r.Str()}
	code := r.Byte()
	ev.Offset = unit.Bytes(r.Float())
	switch code {
	case evReleased:
		ev.Event = EventReleased
	case evFinished:
		ev.Event = EventFinished
	case evResumed:
		ev.Event = EventResumed
	default:
		r.fail(fmt.Errorf("wire: unknown flow event code %d", code))
	}
	return ev
}

func (r *Reader) allocation() *Allocation {
	if r.Byte() == 0 {
		return &Allocation{}
	}
	n := r.Count(minRateBytes)
	rates := make(map[string]unit.Rate, n)
	for i := 0; i < n; i++ {
		id := r.Str()
		rates[id] = unit.Rate(r.Float())
	}
	return &Allocation{Rates: rates}
}

func (r *Reader) jobUpdate() *JobUpdate {
	u := &JobUpdate{JobID: r.Str()}
	switch code := r.Byte(); code {
	case jsQueued:
		u.Status = JobQueued
	case jsAdmitted:
		u.Status = JobAdmitted
	case jsRejected:
		u.Status = JobRejected
	case jsDeparted:
		u.Status = JobDeparted
	default:
		r.fail(fmt.Errorf("wire: unknown job status code %d", code))
	}
	u.Hosts = r.Strs()
	u.Reason = r.Str()
	return u
}
