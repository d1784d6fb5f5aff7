package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// frame wraps a body in the codec's length prefix for seed corpora.
func frame(body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	return append(hdr[:], body...)
}

// FuzzRecv feeds arbitrary byte streams into Codec.Recv: it must never
// panic, never allocate beyond the frame limit for an unbacked length
// prefix, and every message it does accept must validate.
func FuzzRecv(f *testing.F) {
	// Valid frames.
	for _, m := range []Message{
		{Type: TypeHeartbeat},
		{Type: TypeHello, Hello: &Hello{Agent: "a1", Version: ProtocolVersion}},
		{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "g", FlowID: "f", Event: EventResumed, Offset: 7}},
		{Type: TypeAllocation, Allocation: &Allocation{Rates: map[string]unit.Rate{"f": 1}}},
	} {
		body, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame(body))
	}
	// Binary frames, valid and hostile: the receiver auto-detects framing
	// per frame, so the same fuzz target covers both decoders.
	for _, m := range []Message{
		{Type: TypeHeartbeat, Heartbeat: &Heartbeat{Nonce: 7}},
		{Type: TypeFlowEvent, FlowEvent: &FlowEvent{GroupID: "g", FlowID: "f", Event: EventReleased}},
		{Type: TypeFlowBatch, FlowBatch: &FlowBatch{Events: []FlowEvent{
			{GroupID: "g", FlowID: "f", Event: EventFinished}}}},
	} {
		b, err := appendBinaryFrame(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{binaryMagic, 99, 0, 0, 0, 0, 0, 0})                  // unknown kind
	f.Add([]byte{binaryMagic, kindFlowEvent, 0, 0, 0, 0, 0, 3})       // truncated body
	f.Add([]byte{binaryMagic, kindUnregister, 0, 0, 0, 0, 0, 1, 200}) // string overrun
	// Truncated frame: header promises more than the stream holds.
	f.Add(frame([]byte(`{"type":"heartbeat"}`))[:12])
	// Oversize length prefix.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, '{', '}'})
	// Payload/type mismatches and junk bodies.
	f.Add(frame([]byte(`{"type":"hello"}`)))
	f.Add(frame([]byte(`{"type":"flow_event","flow_event":{"event":"exploded"}}`)))
	f.Add(frame([]byte(`{"type":"flow_event","flow_event":{"event":"resumed","offset":-3}}`)))
	f.Add(frame([]byte(`not json at all`)))
	f.Add(frame(nil))
	// Regression: a register frame whose body was a JSON flow_event envelope
	// decoded as that flow_event.
	f.Add(binaryFrame(kindRegister, 0, []byte(regressionFlowEventJSON)))
	f.Add(binaryFrame(kindSubmitJob, 0, []byte(regressionFlowEventJSON)))
	// A valid JSON-framed message outside the handshake: refused.
	f.Add(frame([]byte(regressionFlowEventJSON)))
	// The cold frames, binary.
	for _, m := range []Message{
		{Type: TypeRegister, Register: &Register{GroupID: "g", Arrangement: core.Spec{Kind: "staged", Gaps: []unit.Time{1}},
			Flows: []FlowSpec{{ID: "f", Src: "w1", Dst: "w2", Size: 1}}}},
		{Type: TypeSubmitJob, SubmitJob: &SubmitJob{Job: JobSpec{ID: "j", Paradigm: "dp", Workers: 1, Layers: 1, Iterations: 1}}},
	} {
		b, err := appendBinaryFrame(nil, &m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCodec(readOnly{bytes.NewReader(data)})
		for i := 0; i < 64; i++ {
			m, err := c.Recv()
			if err != nil {
				return // any framed garbage must fail cleanly, not panic
			}
			if verr := m.Validate(); verr != nil {
				t.Fatalf("Recv accepted an invalid message %+v: %v", m, verr)
			}
			// Accepted register payloads must also survive group
			// reconstruction without panicking (arrangement specs come off
			// the wire too).
			if m.Type == TypeRegister {
				_, _ = m.Register.Group()
			}
		}
	})
}

// FuzzCrossCodec is the differential oracle between the codec and
// encoding/json, the reference: a message built from fuzzed fields is sent
// through the codec and round-tripped through json.Marshal/Unmarshal as a
// struct, and the two must agree — the codec accepts exactly what validates
// and JSON can carry, and decodes exactly what the JSON round trip yields
// (nil versus empty, omitted fields, pointer presence). It also holds Send
// and Recv to a lossless round trip: what one peer frames, the other decodes
// bit for bit. Checked-in seed corpora under testdata/fuzz/FuzzCrossCodec
// cover every message type, heartbeat nonce shapes, and boundary batch/host
// counts.
func FuzzCrossCodec(f *testing.F) {
	// typ selects the message; count drives batch/host/rate-map sizes (its
	// sign selects nil-vs-empty and payload presence corners).
	f.Add("hello", "a1", 4, "g", "f", "released", 0.0, 1.5, uint64(0), 1, "w1", "")
	f.Add("register", "", 0, "job/pp", "f0", "", 0.0, 0.0, uint64(0), 0, "", "")
	f.Add("unregister", "", 0, "job/pp", "", "", 0.0, 0.0, uint64(0), 0, "", "")
	f.Add("flow_event", "", 0, "g", "f", "resumed", 4096.0, 0.0, uint64(0), 0, "", "")
	f.Add("flow_event", "", 0, "g", "f", "exploded", -1.0, 0.0, uint64(0), 0, "", "")
	f.Add("flow_batch", "", 0, "g", "f", "finished", 0.5, 0.0, uint64(0), 32, "", "")
	f.Add("flow_batch", "", 0, "g", "f", "released", 0.0, 0.0, uint64(0), 0, "", "")
	f.Add("allocation", "", 0, "", "flow-x", "", 0.0, 123.25, uint64(0), 16, "", "")
	f.Add("allocation", "", 0, "", "", "", 0.0, 0.0, uint64(0), -1, "", "")
	f.Add("heartbeat", "", 0, "", "", "", 0.0, 0.0, uint64(991), 1, "", "")
	f.Add("heartbeat", "", 0, "", "", "", 0.0, 0.0, uint64(0), -1, "", "")
	f.Add("submit_job", "", 0, "", "j0", "", 0.0, 0.0, uint64(0), 2, "", "")
	f.Add("job_update", "", 2, "", "j0", "", 0.0, 0.0, uint64(0), 3, "w1", "no fit")
	f.Add("error", "", 0, "boom", "", "", 0.0, 0.0, uint64(0), 0, "", "throttled")
	// Non-finite floats: JSON cannot carry them, so the codec refuses them
	// on send, and at decode.
	f.Add("flow_event", "", 0, "g", "f", "resumed", math.NaN(), 0.0, uint64(0), 0, "", "")
	f.Add("flow_batch", "", 0, "g", "f", "resumed", math.Inf(1), 0.0, uint64(0), 3, "", "")
	f.Add("allocation", "", 0, "", "f", "", 0.0, math.Inf(-1), uint64(0), 2, "", "")
	f.Add("submit_job", "", 0, "", "j0", "", math.NaN(), 0.0, uint64(0), 1, "", "")
	// A hello whose agent is invalid UTF-8: skipped, since JSON coerces it.
	f.Add("hello", "\xaf", 2, "0", "0", "0", 0.0, 1.5, uint64(0), 0, "", "")

	regBase := Register{GroupID: "job/pp"}
	if g, err := core.New("job/pp", core.Pipeline{T: 2.5},
		&core.Flow{ID: "f0", Src: "w1", Dst: "w2", Size: 100}); err == nil {
		if reg, err := RegisterOf(g); err == nil {
			regBase = reg
		}
	}

	f.Fuzz(func(t *testing.T, typ, agent string, version int, groupID, flowID, event string,
		offset, rate float64, nonce uint64, count int, host, reason string) {
		for _, s := range []string{typ, agent, groupID, flowID, event, host, reason} {
			if !utf8.ValidString(s) {
				t.Skip() // JSON coerces invalid UTF-8; lossy by design
			}
		}
		finiteIn := true
		for _, v := range []float64{offset, rate} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finiteIn = false // JSON cannot carry it: both codecs must refuse
			}
		}
		n := count
		if n < 0 {
			n = 0
		}
		if n > 64 {
			n = n % 64
		}
		m := Message{Type: typ}
		switch typ {
		case TypeHello:
			m.Hello = &Hello{Agent: agent, Version: version}
		case TypeRegister:
			reg := regBase
			reg.GroupID = groupID
			m.Register = &reg
		case TypeUnregister:
			m.Unregister = &Unregister{GroupID: groupID}
		case TypeFlowEvent:
			m.FlowEvent = &FlowEvent{GroupID: groupID, FlowID: flowID, Event: event, Offset: unit.Bytes(offset)}
		case TypeFlowBatch:
			evs := make([]FlowEvent, n)
			kinds := []string{EventReleased, EventFinished, EventResumed, event}
			for i := range evs {
				evs[i] = FlowEvent{GroupID: groupID, FlowID: flowID, Event: kinds[i%len(kinds)], Offset: unit.Bytes(offset)}
			}
			m.FlowBatch = &FlowBatch{Events: evs}
		case TypeAllocation:
			a := &Allocation{}
			if count >= 0 { // negative count = nil map corner
				a.Rates = make(map[string]unit.Rate, n)
				for i := 0; i < n; i++ {
					a.Rates[flowID+string(rune('a'+i%26))] = unit.Rate(rate) + unit.Rate(i)
				}
			}
			m.Allocation = a
		case TypeHeartbeat:
			if count >= 0 { // negative count = bare keepalive corner
				m.Heartbeat = &Heartbeat{Nonce: nonce}
			}
		case TypeSubmitJob:
			job := JobSpec{ID: flowID, Tenant: agent, Paradigm: "dp", Workers: max(n, 1),
				Layers: 2, Params: unit.Bytes(offset), Fwd: 0.1, Bwd: 0.1, Iterations: 1}
			m.SubmitJob = &SubmitJob{Job: job}
		case TypeJobUpdate:
			statuses := []string{JobQueued, JobAdmitted, JobRejected, JobDeparted, event}
			u := &JobUpdate{JobID: flowID, Status: statuses[((version%5)+5)%5], Reason: reason}
			for i := 0; i < n; i++ {
				u.Hosts = append(u.Hosts, host)
			}
			m.JobUpdate = u
		case TypeError:
			m.Error = &Error{Msg: groupID, Code: reason}
		default:
			// Unknown types must be refused, never framed.
			var buf bytes.Buffer
			if err := NewCodec(rw{&buf}).Send(m); err == nil {
				t.Fatalf("accepted unknown type %q", typ)
			}
			return
		}

		var buf bytes.Buffer
		c := NewCodec(rw{&buf})
		sendErr := c.Send(m)
		raw, refErr := json.Marshal(m)
		if refErr == nil {
			refErr = m.Validate()
		}
		if (sendErr == nil) != (refErr == nil) {
			t.Fatalf("codec and JSON reference disagree on acceptance: codec %v, json %v", sendErr, refErr)
		}
		if sendErr != nil {
			if m.Validate() == nil && finiteIn {
				t.Fatalf("codec refused a valid message: %v", sendErr)
			}
			if buf.Len() != 0 {
				t.Fatalf("refused message wrote %d bytes", buf.Len())
			}
			return
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv failed on own Send output: %v", err)
		}
		var ref Message
		if err := json.Unmarshal(raw, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("codec departs from the JSON reference:\njson  %+v\ncodec %+v", ref, got)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip lossy:\nsent %+v\ngot  %+v", m, got)
		}
	})
}

// rw adapts a single buffer into the codec's ReadWriter.
type rw struct{ *bytes.Buffer }

// readOnly exposes a reader as a ReadWriter whose writes are discarded.
type readOnly struct{ *bytes.Reader }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }
