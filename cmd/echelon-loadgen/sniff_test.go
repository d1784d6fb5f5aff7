package main

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"echelonflow/internal/agent"
	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/queue"
	"echelonflow/internal/wire"
)

// frameLog splits one direction of a connection's byte stream into frames
// and keeps the first byte of each: 0xEC opens a binary frame (8-byte
// header, length in its last four bytes), anything else a JSON-framed one
// (4-byte length).
type frameLog struct {
	mu     sync.Mutex
	hdr    []byte
	skip   int
	firsts []byte
}

func (l *frameLog) feed(p []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(p) > 0 {
		if l.skip > 0 {
			n := min(l.skip, len(p))
			l.skip, p = l.skip-n, p[n:]
			continue
		}
		l.hdr, p = append(l.hdr, p[0]), p[1:]
		size := 4
		if l.hdr[0] == 0xEC {
			size = 8
		}
		if len(l.hdr) == size {
			l.firsts = append(l.firsts, l.hdr[0])
			l.skip = int(binary.BigEndian.Uint32(l.hdr[size-4:]))
			l.hdr = l.hdr[:0]
		}
	}
}

func (l *frameLog) frames() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.firsts...)
}

// sniffConn logs the frames a coordinator connection reads and writes.
type sniffConn struct {
	net.Conn
	in, out frameLog
}

func (c *sniffConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n])
	return n, err
}

func (c *sniffConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.feed(p[:n])
	return n, err
}

// sniffListener wraps every accepted connection in a sniffConn.
type sniffListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*sniffConn
}

func (l *sniffListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &sniffConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, sc)
	l.mu.Unlock()
	return sc, nil
}

// TestEveryFrameAfterHelloIsBinary sniffs the coordinator's sockets while
// every kind of in-repo peer runs a session against it: two agent.Agents
// moving a flow, a loadgen tenant running jobs, and a raw-codec tenant
// shaped like the control-plane benchmark's (single flow events, a batch,
// a heartbeat). In both directions, every frame but the peer's hello opens
// with the binary magic 0xEC.
func TestEveryFrameAfterHelloIsBinary(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sniff := &sniffListener{Listener: ln}
	addr, _, _ := serveCoordinator(t, queue.Options{MaxJobs: 2}, sniff)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Quick heartbeats, so the receiving agent, which reports nothing else,
	// sends frames after its hello too.
	sender, err := agent.Dial(ctx, agent.Options{Name: "a1", CoordinatorAddr: addr, Heartbeat: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	receiver, err := agent.Dial(ctx, agent.Options{Name: "a2", CoordinatorAddr: addr, DataAddr: "127.0.0.1:0",
		Heartbeat: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	g, err := core.NewCoflow("sniff/g", &core.Flow{ID: "sniff/f0", Src: "w0", Dst: "w1", Size: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.RegisterGroup(g); err != nil {
		t.Fatal(err)
	}
	if err := sender.SendFlow(ctx, "sniff/g", "sniff/f0", 4<<10, receiver.DataAddr()); err != nil {
		t.Fatal(err)
	}
	if err := receiver.WaitReceived(ctx, "sniff/f0"); err != nil {
		t.Fatal(err)
	}

	if _, err := run(config{addr: addr, tenants: 1, jobs: 2, iterations: 1, maxWorkers: 2,
		paradigms: []string{"dp", "pp"}, seed: 5, timeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	rawTenant(t, addr)

	sniff.mu.Lock()
	conns := append([]*sniffConn(nil), sniff.conns...)
	sniff.mu.Unlock()
	if len(conns) != 4 {
		t.Fatalf("%d sessions sniffed, want 4 (two agents, a loadgen tenant, a raw tenant)", len(conns))
	}
	for i, c := range conns {
		for len(c.in.frames()) < 2 && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond) // an agent's next heartbeat
		}
		in, out := c.in.frames(), c.out.frames()
		if len(in) < 2 || len(out) < 1 {
			t.Errorf("session %d: %d frames in, %d out; too few to judge", i, len(in), len(out))
			continue
		}
		if in[0] > 0x01 {
			t.Errorf("session %d: the hello opens with %#x, want a JSON length prefix", i, in[0])
		}
		for k, b := range in[1:] {
			if b != 0xEC {
				t.Errorf("session %d: inbound frame %d of %d opens with %#x", i, k+1, len(in), b)
			}
		}
		for k, b := range out {
			if b != 0xEC {
				t.Errorf("session %d: outbound frame %d of %d opens with %#x", i, k, len(out), b)
			}
		}
	}
}

// rawTenant drives one job through a bare codec the way the control-plane
// benchmark's tenants do: hello, submit_job, its flow events as one single
// flow_event and then one flow_batch, a heartbeat, and the job_updates back.
func rawTenant(t *testing.T, addr string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	codec := wire.NewCodec(conn)
	send := func(msgs ...wire.Message) {
		for _, m := range msgs {
			if err := codec.Send(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	await := func(status string) []string {
		for {
			m, err := codec.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Type == wire.TypeError {
				t.Fatalf("coordinator error: %s", m.Error.Msg)
			}
			if m.Type == wire.TypeJobUpdate && m.JobUpdate.Status == status {
				return m.JobUpdate.Hosts
			}
		}
	}
	spec := wire.JobSpec{ID: "raw/j0", Tenant: "raw", Paradigm: "dp", Workers: 2, Layers: 2,
		Params: 1 << 10, Acts: 1 << 10, Fwd: 0.001, Bwd: 0.002, Iterations: 1}
	send(wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Agent: "raw", Version: wire.ProtocolVersion}})
	codec.EnableBinary() // a no-op, called as the benchmark's tenants still call it
	send(wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: spec}})
	w, err := queue.Build(spec, await(wire.JobAdmitted))
	if err != nil {
		t.Fatal(err)
	}
	var evs []wire.FlowEvent
	for _, n := range w.Graph.Nodes() {
		if n.Kind == dag.Comm {
			for _, event := range []string{wire.EventReleased, wire.EventFinished} {
				evs = append(evs, wire.FlowEvent{GroupID: n.Group, FlowID: n.ID, Event: event})
			}
		}
	}
	send(wire.Message{Type: wire.TypeFlowEvent, FlowEvent: &evs[0]},
		wire.Message{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: evs[1:]}},
		wire.Message{Type: wire.TypeHeartbeat, Heartbeat: &wire.Heartbeat{}})
	await(wire.JobDeparted)
}
