package wire

import (
	"bytes"
	"fmt"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// benchMessage builds the shapes the BENCH_wire.json suite tracks: the hot
// path's single flow events, a 32-event batch, a 16-flow allocation push and
// the heartbeat keepalive, and the two cold frames, a job submission and a
// 16-flow registration.
func benchMessage(name string) Message {
	switch name {
	case "FlowEvent":
		return Message{Type: TypeFlowEvent,
			FlowEvent: &FlowEvent{GroupID: "job/dp/0", FlowID: "flow-17", Event: EventReleased}}
	case "FlowBatch32":
		evs := make([]FlowEvent, 32)
		for i := range evs {
			ev := EventReleased
			if i%2 == 1 {
				ev = EventFinished
			}
			evs[i] = FlowEvent{GroupID: "job/dp/0", FlowID: fmt.Sprintf("flow-%d", i/2), Event: ev}
		}
		return Message{Type: TypeFlowBatch, FlowBatch: &FlowBatch{Events: evs}}
	case "Allocation16":
		rates := make(map[string]unit.Rate, 16)
		for i := 0; i < 16; i++ {
			rates[fmt.Sprintf("flow-%d", i)] = unit.Rate(i) * 12.5
		}
		return Message{Type: TypeAllocation, Allocation: &Allocation{Rates: rates}}
	case "Heartbeat":
		return Message{Type: TypeHeartbeat, Heartbeat: &Heartbeat{Nonce: 42}}
	case "SubmitJob":
		return Message{Type: TypeSubmitJob, SubmitJob: &SubmitJob{Job: JobSpec{ID: "lg/t0/j17", Tenant: "t0",
			Paradigm: "pp", Workers: 4, Layers: 8, Params: 64 << 20, Acts: 8 << 20, Fwd: 0.012, Bwd: 0.024,
			Micro: 4, Iterations: 10, Weight: 1, Declared: 0.5}}}
	case "Register16":
		flows := make([]FlowSpec, 16)
		for i := range flows {
			flows[i] = FlowSpec{ID: fmt.Sprintf("flow-%d", i), Src: fmt.Sprintf("w%d", i%4),
				Dst: fmt.Sprintf("w%d", (i+1)%4), Size: 1 << 20, Stage: i / 4}
		}
		return Message{Type: TypeRegister, Register: &Register{GroupID: "job/pp/0",
			Arrangement: core.Spec{Kind: "pipeline", T: 0.25}, Flows: flows, Weight: 1}}
	}
	panic("unknown bench message " + name)
}

// benchCodec measures a full Send+Recv round trip per iteration over an
// in-memory stream, the codec cost a control-plane message pays end to end.
func benchCodec(b *testing.B, name string) {
	m := benchMessage(name)
	var buf bytes.Buffer
	c := NewCodec(rw{&buf})
	// Warm the reusable buffers and the intern table.
	for i := 0; i < 4; i++ {
		if err := c.Send(m); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(m); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWire_FlowEvent_Binary(b *testing.B)    { benchCodec(b, "FlowEvent") }
func BenchmarkWire_FlowBatch32_Binary(b *testing.B)  { benchCodec(b, "FlowBatch32") }
func BenchmarkWire_Allocation16_Binary(b *testing.B) { benchCodec(b, "Allocation16") }
func BenchmarkWire_Heartbeat_Binary(b *testing.B)    { benchCodec(b, "Heartbeat") }
func BenchmarkWire_SubmitJob_Binary(b *testing.B)    { benchCodec(b, "SubmitJob") }
func BenchmarkWire_Register16_Binary(b *testing.B)   { benchCodec(b, "Register16") }

// TestBinaryEncodeZeroAlloc pins the fast-path claim directly: framing a hot
// message under the binary codec allocates nothing once the send buffer has
// grown.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	for _, name := range []string{"FlowEvent", "Heartbeat"} {
		m := benchMessage(name)
		c := NewCodec(struct {
			*bytes.Reader
			discard
		}{bytes.NewReader(nil), discard{}})
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(64, func() {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: binary encode costs %.1f allocs/msg, want 0", name, allocs)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// maxSubmitJobAllocs is the per-job allocation budget TestSubmitJobAllocs
// holds the submit_job frame to.
const maxSubmitJobAllocs = 2

// TestSubmitJobAllocs gates the cold frame that admission takes per job: a
// submit_job Send+Recv allocates the decoded payload, the job ID the intern
// table has not seen and its own entry in that table, and nothing else — an
// encoding/json body cost 16.
func TestSubmitJobAllocs(t *testing.T) {
	m := benchMessage("SubmitJob")
	var buf bytes.Buffer
	c := NewCodec(rw{&buf})
	ids := make([]string, 128) // a fresh ID per submission, built outside the count
	for i := range ids {
		ids[i] = fmt.Sprintf("lg/t0/j%d", i)
	}
	n := 0
	next := func() {
		m.SubmitJob.Job.ID = ids[n]
		n++
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	next() // grow the send and body buffers
	if allocs := testing.AllocsPerRun(64, next); allocs > maxSubmitJobAllocs {
		t.Errorf("submit_job Send+Recv costs %.1f allocs, want <= %d", allocs, maxSubmitJobAllocs)
	}
}
