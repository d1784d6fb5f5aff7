package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// sampleMessages covers every message type with representative payloads,
// including the canonicalization corners (nil vs empty allocation map,
// heartbeat pointer presence, empty host list).
func sampleMessages(t *testing.T) []Message {
	t.Helper()
	reg, err := RegisterOf(sampleGroup(t))
	if err != nil {
		t.Fatal(err)
	}
	job := sampleJob()
	return []Message{
		{Type: TypeHello, Hello: &Hello{Agent: "a1", Version: ProtocolVersion}},
		{Type: TypeHello, Hello: &Hello{Agent: "", Version: 0}},
		{Type: TypeRegister, Register: &reg},
		{Type: TypeUnregister, Unregister: &Unregister{GroupID: "job/pp"}},
		{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "g", FlowID: "f", Event: EventReleased}},
		{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "g", FlowID: "f", Event: EventFinished}},
		{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "g", FlowID: "f0", Event: EventResumed, Offset: 4096.5}},
		{Type: TypeFlowBatch, FlowBatch: &FlowBatch{Events: []FlowEvent{
			{GroupID: "g", FlowID: "f0", Event: EventReleased},
			{GroupID: "g", FlowID: "f0", Event: EventFinished},
			{GroupID: "g", FlowID: "f1", Event: EventResumed, Offset: 7},
		}}},
		{Type: TypeAllocation, Allocation: &Allocation{}},                              // nil map
		{Type: TypeAllocation, Allocation: &Allocation{Rates: map[string]unit.Rate{}}}, // empty map
		{Type: TypeAllocation, Allocation: &Allocation{Rates: map[string]unit.Rate{"f0": 12.5, "f1": 0}}},
		{Type: TypeHeartbeat},                                    // bare keepalive
		{Type: TypeHeartbeat, Heartbeat: &Heartbeat{}},           // payload, nonce 0
		{Type: TypeHeartbeat, Heartbeat: &Heartbeat{Nonce: 991}}, // RTT ping
		{Type: TypeSubmitJob, SubmitJob: &SubmitJob{Job: job}},
		{Type: TypeJobUpdate, JobUpdate: &JobUpdate{JobID: job.ID, Status: JobQueued}},
		{Type: TypeJobUpdate, JobUpdate: &JobUpdate{JobID: job.ID, Status: JobAdmitted, Hosts: []string{"w1", "w2"}}},
		{Type: TypeJobUpdate, JobUpdate: &JobUpdate{JobID: job.ID, Status: JobRejected, Reason: "no fit"}},
		{Type: TypeError, Error: &Error{Msg: "boom"}},
		{Type: TypeError, Error: &Error{Msg: "slow down", Code: ErrCodeThrottled}},
	}
}

// roundTrip sends m through a fresh codec and decodes it back.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	c := NewCodec(rw{&buf})
	if err := c.Send(m); err != nil {
		t.Fatalf("send %+v: %v", m, err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatalf("recv %+v: %v", m, err)
	}
	return got
}

// TestCrossCodecEquivalence is the unit-level half of the codec contract:
// every sample message round-trips through the codec to exactly what a
// json.Marshal/Unmarshal round trip of the struct yields, and to itself.
func TestCrossCodecEquivalence(t *testing.T) {
	for i, m := range sampleMessages(t) {
		ref := viaJSON(t, m)
		got := roundTrip(t, m)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("case %d: codec departs from the JSON reference\njson  %+v\ncodec %+v", i, ref, got)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("case %d: round trip lossy\nsent %+v\ngot  %+v", i, m, got)
		}
	}
}

// TestBinaryFrameShape pins the on-wire layout: magic byte, kind, flags,
// big-endian body length.
func TestBinaryFrameShape(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(rw{&buf})
	if err := c.Send(Message{Type: TypeHeartbeat, Heartbeat: &Heartbeat{Nonce: 1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < binaryHeaderSize {
		t.Fatalf("frame too short: %d bytes", len(raw))
	}
	if raw[0] != binaryMagic {
		t.Errorf("magic = %#x", raw[0])
	}
	if raw[1] != kindHeartbeat {
		t.Errorf("kind = %d", raw[1])
	}
	if flags := binary.BigEndian.Uint16(raw[2:4]); flags&flagHeartbeatPayload == 0 {
		t.Errorf("flags = %#x, payload bit missing", flags)
	}
	if n := binary.BigEndian.Uint32(raw[4:8]); int(n) != len(raw)-binaryHeaderSize {
		t.Errorf("length = %d, body = %d", n, len(raw)-binaryHeaderSize)
	}
}

// TestBinaryNegotiation: there is nothing left to negotiate. From a codec's
// first frame on, a hello goes out JSON-framed and every other message
// binary, and a fresh receiver decodes both.
func TestBinaryNegotiation(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(rw{&buf})
	for _, m := range sampleMessages(t) {
		buf.Reset()
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		if first := buf.Bytes()[0]; (m.Type == TypeHello) != (first <= 0x01) || (m.Type != TypeHello && first != binaryMagic) {
			t.Errorf("%s opens with %#x", m.Type, first)
		}
		if got, err := NewCodec(rw{&buf}).Recv(); err != nil || got.Type != m.Type {
			t.Errorf("fresh receiver on %s: %+v, %v", m.Type, got, err)
		}
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestSendSingleWrite: header and body reach the stream in one Write call,
// under both framings — one syscall per message on a raw conn.
func TestSendSingleWrite(t *testing.T) {
	reg, err := RegisterOf(sampleGroup(t))
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		{Type: TypeHello, Hello: &Hello{Agent: "a1", Version: ProtocolVersion}},
		{Type: TypeHeartbeat},
		{Type: TypeRegister, Register: &reg},
		{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "g", FlowID: "f", Event: EventReleased}},
	}
	w := &countingWriter{}
	c := NewCodec(struct {
		io.Reader
		io.Writer
	}{new(bytes.Buffer), w})
	for i, m := range msgs {
		before := w.writes
		if err := c.Send(m); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if got := w.writes - before; got != 1 {
			t.Errorf("%s took %d writes, want 1", m.Type, got)
		}
	}
	before := w.writes
	if err := c.Refuse("no"); err != nil || w.writes-before != 1 {
		t.Errorf("refusal: %v, %d writes", err, w.writes-before)
	}
}

// TestRecvTruncationErrors pins the regression: a stream ending mid-frame is
// io.ErrUnexpectedEOF at both truncation points (mid-header and mid-body),
// under both framings — never a clean io.EOF, which callers treat as an
// orderly hangup.
func TestRecvTruncationErrors(t *testing.T) {
	for _, m := range []Message{
		{Type: TypeHello, Hello: &Hello{Agent: "agent", Version: ProtocolVersion}},
		{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "group", FlowID: "flow", Event: EventFinished}},
	} {
		var buf bytes.Buffer
		if err := NewCodec(rw{&buf}).Send(m); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		hdrLen := 4
		if raw[0] == binaryMagic {
			hdrLen = binaryHeaderSize
		}
		cuts := []struct {
			name string
			n    int
		}{
			{"mid-header", hdrLen / 2},
			{"header-only", hdrLen},
			{"mid-body", hdrLen + (len(raw)-hdrLen)/2},
		}
		for _, cut := range cuts {
			c := NewCodec(readOnly{bytes.NewReader(raw[:cut.n])})
			_, err := c.Recv()
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s %s: err = %v, want io.ErrUnexpectedEOF", m.Type, cut.name, err)
			}
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s %s: truncation surfaced as clean EOF", m.Type, cut.name)
			}
		}
		// An empty stream remains a clean EOF.
		c2 := NewCodec(readOnly{bytes.NewReader(nil)})
		if _, err := c2.Recv(); err != io.EOF {
			t.Errorf("%s empty stream: err = %v, want io.EOF", m.Type, err)
		}
	}
}

// TestBinaryRecvResumesMidFrame: the 8-byte header path survives read
// deadlines at every byte boundary, like the JSON path.
func TestBinaryRecvResumesMidFrame(t *testing.T) {
	var buf bytes.Buffer
	send := NewCodec(rw{&buf})
	if err := send.Send(Message{Type: TypeFlowEvent,
		FlowEvent: &FlowEvent{GroupID: "g", FlowID: "f", Event: EventFinished}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		r := &stutterReader{script: [][]byte{raw[:cut], nil, raw[cut:]}}
		c := NewCodec(struct {
			io.Reader
			io.Writer
		}{r, io.Discard})
		timeouts := 0
		for {
			m, err := c.Recv()
			if err != nil {
				timeouts++
				if timeouts > 2 {
					t.Fatalf("cut %d: unexpected error: %v", cut, err)
				}
				continue
			}
			if m.Type != TypeFlowEvent || m.FlowEvent.FlowID != "f" {
				t.Fatalf("cut %d: decoded %+v", cut, m)
			}
			break
		}
		if got := c.Received(); got != uint64(len(raw)) {
			t.Errorf("cut %d: Received() = %d, want %d", cut, got, len(raw))
		}
	}
}

// regressionFlowEventJSON is a valid flow_event envelope in JSON, the body
// the register/submit_job kind-confusion regression carried.
const regressionFlowEventJSON = `{"type":"flow_event","flow_event":{"group_id":"g","flow_id":"f","event":"released"}}`

// TestRecvRefusesJSONOutsideHandshake: a JSON-framed frame is accepted only
// if it carries a hello or an error; every other message, valid as it may
// be, is refused, and so are the other payloads a handshake body might carry.
func TestRecvRefusesJSONOutsideHandshake(t *testing.T) {
	for _, body := range []string{
		regressionFlowEventJSON,
		`{"type":"heartbeat"}`,
		`{"type":"unregister","unregister":{"group_id":"g"}}`,
		`{"type":"submit_job","submit_job":{"job":{"id":"j","paradigm":"dp","workers":1,"layers":1,"iterations":1}}}`,
		`{"type":"allocation","allocation":{"rates":{"f":1}}}`,
	} {
		if m, err := NewCodec(readOnly{bytes.NewReader(frame([]byte(body)))}).Recv(); err == nil {
			t.Errorf("%s: accepted %+v", body, m)
		}
	}
	for _, tc := range []struct {
		body string
		want Message
	}{
		{`{"type":"hello","hello":{"agent":"a1","version":3}}`, Message{Type: TypeHello, Hello: &Hello{Agent: "a1", Version: 3}}},
		{`{"type":"error","error":{"msg":"no"}}`, Message{Type: TypeError, Error: &Error{Msg: "no"}}},
		{`{"type":"hello","hello":{"agent":"a1"},"flow_event":{"group_id":"g"}}`, Message{Type: TypeHello, Hello: &Hello{Agent: "a1"}}},
	} {
		got, err := NewCodec(readOnly{bytes.NewReader(frame([]byte(tc.body)))}).Recv()
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %+v, %v; want %+v", tc.body, got, err, tc.want)
		}
	}
	var buf bytes.Buffer
	if err := NewCodec(rw{&buf}).Refuse("version 3 refused"); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] > 0x01 {
		t.Errorf("refusal opens with %#x, want a JSON length prefix", buf.Bytes()[0])
	}
	var legacy Message // a peer decoding the refusal as a whole envelope
	if err := json.Unmarshal(buf.Bytes()[4:], &legacy); err != nil || legacy.Error == nil || legacy.Error.Msg != "version 3 refused" {
		t.Errorf("refusal as a legacy envelope: %+v, %v", legacy, err)
	}
}

// binaryFrame builds a raw binary frame for hostile-input tests.
func binaryFrame(kind byte, flags uint16, body []byte) []byte {
	b := []byte{binaryMagic, kind, byte(flags >> 8), byte(flags), 0, 0, 0, 0}
	binary.BigEndian.PutUint32(b[4:8], uint32(len(body)))
	return append(b, body...)
}

// TestBinaryHostileFrames: malformed binary bodies fail cleanly.
func TestBinaryHostileFrames(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"unknown kind", binaryFrame(99, 0, nil)},
		{"flow event empty body", binaryFrame(kindFlowEvent, 0, nil)},
		{"flow event bad code", binaryFrame(kindFlowEvent, 0, []byte{0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0})},
		{"string overruns body", binaryFrame(kindUnregister, 0, []byte{200})},
		{"trailing bytes", binaryFrame(kindUnregister, 0, []byte{1, 'g', 0xFF})},
		{"batch count exceeds body", binaryFrame(kindFlowBatch, 0, []byte{0xFF, 0xFF, 0x03})},
		{"batch count zero", binaryFrame(kindFlowBatch, 0, []byte{0})},
		{"allocation count exceeds body", binaryFrame(kindAllocation, 0, []byte{1, 0xFF, 0xFF, 0x03})},
		{"job update bad status", binaryFrame(kindJobUpdate, 0, []byte{1, 'j', 9, 0, 0})},
		{"heartbeat flagged but empty", binaryFrame(kindHeartbeat, flagHeartbeatPayload, nil)},
		{"register junk", binaryFrame(kindRegister, 0, []byte("{nope"))},
		// Regression: register and submit_job frames used to carry a JSON
		// envelope whose own type won over the frame's kind, so this frame
		// came out of Recv as a flow_event.
		{"register kind, flow_event JSON body", binaryFrame(kindRegister, 0, []byte(regressionFlowEventJSON))},
		{"submit_job kind, flow_event JSON body", binaryFrame(kindSubmitJob, 0, []byte(regressionFlowEventJSON))},
		{"binary-framed hello (kind 1)", binaryFrame(1, 0, []byte{2, 'a', '1', 8})},
		{"oversize length", func() []byte {
			f := binaryFrame(kindHeartbeat, 0, nil)
			binary.BigEndian.PutUint32(f[4:8], MaxFrame+1)
			return f
		}()},
	}
	for _, tc := range cases {
		c := NewCodec(readOnly{bytes.NewReader(tc.frame)})
		if m, err := c.Recv(); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, m)
		}
	}
}

// TestBinaryRejectsNonFinite: the binary encoders reject exactly the float
// values json.Marshal rejects, keeping the accepted-input sets identical.
func TestBinaryRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		job := sampleJob()
		job.Params = unit.Bytes(v)
		msgs := []Message{
			{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "g", FlowID: "f", Event: EventResumed, Offset: unit.Bytes(math.Abs(v))}},
			{Type: TypeAllocation, Allocation: &Allocation{Rates: map[string]unit.Rate{"f": unit.Rate(v)}}},
			{Type: TypeRegister, Register: &Register{GroupID: "g", Arrangement: core.Spec{Kind: "coflow"}, Weight: math.Abs(v)}},
			{Type: TypeSubmitJob, SubmitJob: &SubmitJob{Job: job}},
		}
		for i, m := range msgs {
			var buf bytes.Buffer
			if err := NewCodec(rw{&buf}).Send(m); err == nil {
				t.Errorf("case %d: non-finite %v accepted", i, v)
			}
			if buf.Len() != 0 {
				t.Errorf("case %d: refused message wrote %d bytes", i, buf.Len())
			}
		}
	}
}

// TestBinaryDecodeRejectsNonFinite: float bits no encoder writes — NaN and
// the infinities, which JSON cannot carry at all — are refused at decode, so
// a flow event's offset or an allocation rate read off a binary frame is
// always a number the model can do arithmetic with.
func TestBinaryDecodeRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bits := binary.BigEndian.AppendUint64(nil, math.Float64bits(v))
		event := append([]byte{1, 'g', 1, 'f', evResumed}, bits...)
		frames := map[string][]byte{
			"flow_event": binaryFrame(kindFlowEvent, 0, event),
			"flow_batch": binaryFrame(kindFlowBatch, 0, append([]byte{1}, event...)),
			"allocation": binaryFrame(kindAllocation, 0, append([]byte{1, 1, 1, 'f'}, bits...)),
		}
		for name, frame := range frames {
			c := NewCodec(readOnly{bytes.NewReader(frame)})
			if m, err := c.Recv(); err == nil {
				t.Errorf("%s with %v: accepted %+v", name, v, m)
			}
		}
	}
}

// TestRegisterJobSpecBinaryRoundTrip: the stores' binary encodings of a
// registration and a job spec decode to what a JSON round trip decodes to,
// including nil versus empty flow lists and omitted arrangement lists.
func TestRegisterJobSpecBinaryRoundTrip(t *testing.T) {
	regs := []Register{
		{GroupID: "job/pp", Arrangement: core.Spec{Kind: "pipeline", T: 2.5},
			Flows: []FlowSpec{{ID: "f0", Src: "w1", Dst: "w2", Size: 100, Stage: 3}}, Weight: 2},
		{GroupID: "s", Arrangement: core.Spec{Kind: "staged", Gaps: []unit.Time{1, 0.5}, Offs: []unit.Time{}}, Flows: []FlowSpec{}},
		{GroupID: "a", Arrangement: core.Spec{Kind: "absolute", Offs: []unit.Time{0, 4}}},
	}
	for i := range regs {
		b, err := AppendRegister(nil, &regs[i])
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(b)
		got := r.Register()
		if err := r.Done(); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		if want := viaJSON(t, regs[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("register %d:\nbinary %+v\njson   %+v", i, got, want)
		}
	}
	job := JobSpec{ID: "j", Tenant: "t", Paradigm: "pp", Workers: 3, Layers: 4, Params: 1e9, Acts: 2e9,
		Fwd: 0.1, Bwd: 0.2, AggTime: 0.01, Buckets: 2, Micro: 4, UpdateTime: 0.05, Prefetch: 1,
		Iterations: 7, Weight: 1.5, Declared: 3}
	b, err := AppendJobSpec(nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(b)
	if got, err := r.JobSpec(), r.Done(); err != nil || got != job {
		t.Errorf("job spec: %+v, %v", got, err)
	}
	job.Fwd = unit.Time(math.Inf(1))
	if _, err := AppendJobSpec(nil, &job); err == nil {
		t.Error("non-finite job spec encoded")
	}
}

// viaJSON is v after a JSON round trip.
func viaJSON[T any](t *testing.T, v T) T {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlowBatchValidate: the batched envelope enforces per-event shape.
func TestFlowBatchValidate(t *testing.T) {
	bad := []Message{
		{Type: TypeFlowBatch},
		{Type: TypeFlowBatch, FlowBatch: &FlowBatch{}},
		{Type: TypeFlowBatch, FlowBatch: &FlowBatch{Events: []FlowEvent{{Event: "exploded"}}}},
		{Type: TypeFlowBatch, FlowBatch: &FlowBatch{Events: []FlowEvent{
			{GroupID: "g", FlowID: "f", Event: EventReleased},
			{GroupID: "g", FlowID: "f", Event: EventResumed, Offset: -1},
		}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	ok := Message{Type: TypeFlowBatch, FlowBatch: &FlowBatch{Events: []FlowEvent{
		{GroupID: "g", FlowID: "f", Event: EventReleased},
	}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
}

// TestBinaryDecodeInterns: steady-state decodes of hot-path events reuse
// interned ID strings and the codec's body buffer — per-message allocations
// stay at the payload struct itself.
func TestBinaryDecodeInterns(t *testing.T) {
	var buf bytes.Buffer
	send := NewCodec(rw{&buf})
	m := Message{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "job/dp/0", FlowID: "flow-17", Event: EventReleased}}
	for i := 0; i < 64; i++ {
		if err := send.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCodec(readOnly{bytes.NewReader(buf.Bytes())})
	// Warm the intern table and body buffer.
	first, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(32, func() {
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.FlowEvent.GroupID != first.FlowEvent.GroupID {
			t.Fatal("payload mismatch")
		}
	})
	// One FlowEvent struct per message; everything else is reused.
	if allocs > 2 {
		t.Errorf("steady-state decode costs %.1f allocs/msg, want <= 2", allocs)
	}
}
