package coordinator

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// rawSession is a minimal protocol client for session-level tests.
type rawSession struct {
	conn  net.Conn
	codec *wire.Codec
}

func dialRaw(t *testing.T, addr, name string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewCodec(conn)
	if err := c.Send(wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Agent: name, Version: wire.ProtocolVersion}}); err != nil {
		t.Fatal(err)
	}
	return &rawSession{conn: conn, codec: c}
}

// recvAllocation reads messages until an allocation arrives.
func (s *rawSession) recvAllocation(t *testing.T) map[string]unit.Rate {
	t.Helper()
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		msg, err := s.codec.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		switch msg.Type {
		case wire.TypeAllocation:
			return msg.Allocation.Rates
		case wire.TypeError:
			t.Fatalf("coordinator error: %s", msg.Error.Msg)
		}
	}
}

func startServer(t *testing.T) (*Coordinator, string, func()) {
	t.Helper()
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2", "w3")
	c, err := New(Options{Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c.Serve(ctx, ln)
	}()
	return c, ln.Addr().String(), func() {
		cancel()
		wg.Wait()
	}
}

// A hello announcing any version but wire.ProtocolVersion — a pre-versioning
// peer (0), a v3 peer, a newer one (5) — gets exactly one error, JSON-framed
// so that any revision reads it, naming the version required, and then the
// connection closes. The register that arrived with the hello is never
// applied: no session is adopted and no group registered.
func TestHelloVersionRefused(t *testing.T) {
	c, addr, stop := startServer(t)
	defer stop()
	g, err := core.NewCoflow("refused/g", &core.Flow{ID: "f0", Src: "w1", Dst: "w2", Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := wire.RegisterOf(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 3, 5} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("v%d", v)
		// One write, so the coordinator's first read takes both frames and
		// its close leaves no unread bytes to reset the connection with.
		var out bytes.Buffer
		for _, m := range []wire.Message{
			{Type: wire.TypeHello, Hello: &wire.Hello{Agent: name, Version: v}},
			{Type: wire.TypeRegister, Register: &reg},
		} {
			if err := wire.NewCodec(&out).Send(m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Write(out.Bytes()); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		raw, err := io.ReadAll(conn) // to the close
		conn.Close()
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if len(raw) == 0 || raw[0] > 0x01 {
			t.Fatalf("version %d: reply %x is not one JSON-framed frame", v, raw)
		}
		back := wire.NewCodec(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(raw), io.Discard})
		m, err := back.Recv()
		if err != nil || m.Type != wire.TypeError || !strings.Contains(m.Error.Msg, fmt.Sprint(wire.ProtocolVersion)) {
			t.Errorf("version %d: reply %+v, %v; want an error naming version %d", v, m, err, wire.ProtocolVersion)
		}
		if m, err := back.Recv(); err != io.EOF {
			t.Errorf("version %d: after the refusal: %+v, %v; want the close", v, m, err)
		}
		c.mu.Lock()
		_, adopted := c.byName[name]
		groups := len(c.groups)
		c.mu.Unlock()
		if adopted || groups != 0 {
			t.Errorf("version %d: session adopted %v, %d group(s) registered", v, adopted, groups)
		}
	}
}

// Delta pushes: a flow whose rate is unchanged between reschedules is not
// re-sent; a changed rate is. The clock is frozen so the fluid model sees
// both reschedules at the same instant and f0's rate cannot drift between
// them — the assertion is about delta filtering, not scheduling jitter.
func TestDeltaAllocationPushes(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2", "w3")
	coord, err0 := New(Options{Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		Clock: clk, Logf: t.Logf})
	if err0 != nil {
		t.Fatal(err0)
	}
	ln, err0 := net.Listen("tcp", "127.0.0.1:0")
	if err0 != nil {
		t.Fatal(err0)
	}
	srvCtx, cancel := context.WithCancel(context.Background())
	var srvWG sync.WaitGroup
	srvWG.Add(1)
	go func() { defer srvWG.Done(); _ = coord.Serve(srvCtx, ln) }()
	addr, stop := ln.Addr().String(), func() { cancel(); srvWG.Wait() }
	defer stop()
	s := dialRaw(t, addr, "a1")
	defer s.conn.Close()

	g := pipelineGroup(t) // f0 (20 bytes), f1 (20 bytes), w1->w2, T=2
	reg, err := wire.RegisterOf(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	release := func(id string) {
		if err := s.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
			FlowEvent: &wire.FlowEvent{GroupID: "job/pp", FlowID: id, Event: wire.EventReleased}}); err != nil {
			t.Fatal(err)
		}
	}
	release("f0")
	first := s.recvAllocation(t)
	if _, ok := first["f0"]; !ok {
		t.Fatalf("first allocation = %v, want f0", first)
	}
	release("f1")
	second := s.recvAllocation(t)
	if _, ok := second["f1"]; !ok {
		t.Fatalf("second allocation = %v, want f1 entry", second)
	}
	computed, pushed := coord.PushStats()
	if pushed >= computed {
		t.Errorf("delta filtering saved nothing: computed %d, pushed %d", computed, pushed)
	}
	if pushed == 0 {
		t.Error("nothing pushed at all")
	}
}

// A new session receives full state on its first allocation, not a delta
// against some other session's history.
func TestPerSessionDeltaState(t *testing.T) {
	coord, addr, stop := startServer(t)
	defer stop()
	a := dialRaw(t, addr, "a1")
	defer a.conn.Close()

	g := pipelineGroup(t)
	reg, _ := wire.RegisterOf(g)
	if err := a.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	if err := a.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
		FlowEvent: &wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}}); err != nil {
		t.Fatal(err)
	}
	if rates := a.recvAllocation(t); rates["f0"] <= 0 {
		t.Fatalf("a1 allocation = %v", rates)
	}

	// Second agent joins; a reschedule (triggered by f1's release) must
	// deliver f0's unchanged rate to it as well, since it has never seen it.
	b := dialRaw(t, addr, "a2")
	defer b.conn.Close()
	// The handshake completes on the server's goroutine: a reschedule that
	// runs before a2 is adopted has no session to push to.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		coord.mu.Lock()
		adopted := coord.byName["a2"] != nil
		coord.mu.Unlock()
		if adopted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a2 never adopted")
		}
	}
	if err := a.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
		FlowEvent: &wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased}}); err != nil {
		t.Fatal(err)
	}
	rates := b.recvAllocation(t)
	if _, ok := rates["f0"]; !ok {
		t.Errorf("new session missing f0 state: %v", rates)
	}
}

// A disconnecting agent's groups are dropped and capacity reallocated.
func TestSessionDropUnregisters(t *testing.T) {
	coord, addr, stop := startServer(t)
	defer stop()
	a := dialRaw(t, addr, "a1")
	g := pipelineGroup(t)
	reg, _ := wire.RegisterOf(g)
	if err := a.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	// Wait until the registration is applied.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := coord.GroupStatus("job/pp"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registration never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.conn.Close()
	for {
		if _, _, err := coord.GroupStatus("job/pp"); err != nil {
			break // dropped
		}
		if time.Now().After(deadline) {
			t.Fatal("group not dropped after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Bad handshakes and unknown messages don't wedge the server.
func TestBadClients(t *testing.T) {
	coord, addr, stop := startServer(t)
	defer stop()
	// No hello: send a register first.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewCodec(conn)
	g := pipelineGroup(t)
	reg, _ := wire.RegisterOf(g)
	_ = c.Send(wire.Message{Type: wire.TypeRegister, Register: &reg})
	conn.Close()

	// Hello then an unexpected hello again: server replies with an error
	// but keeps serving.
	s := dialRaw(t, addr, "weird")
	defer s.conn.Close()
	if err := s.codec.Send(wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Agent: "again", Version: wire.ProtocolVersion}}); err != nil {
		t.Fatal(err)
	}
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := s.codec.Recv()
	if err != nil || msg.Type != wire.TypeError {
		t.Fatalf("want error reply, got %v, %v", msg.Type, err)
	}
	// The coordinator is still healthy.
	if err := coord.RegisterGroup("direct", g); err != nil {
		t.Errorf("coordinator wedged: %v", err)
	}
}

// An agent that stops talking (no heartbeats) is dropped after the session
// timeout and its groups unregistered; a heartbeating agent survives.
func TestSessionTimeout(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2")
	coord, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		SessionTimeout: 150 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = coord.Serve(ctx, ln) }()
	defer wg.Wait()
	defer cancel()

	silent := dialRaw(t, ln.Addr().String(), "silent")
	defer silent.conn.Close()
	g, _ := core.NewCoflow("quiet/g", &core.Flow{ID: "q", Src: "w1", Dst: "w2", Size: 1})
	reg, _ := wire.RegisterOf(g)
	if err := silent.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := coord.GroupStatus("quiet/g"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registration never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Chatty keeps heartbeating and must survive past the timeout window.
	chatty := dialRaw(t, ln.Addr().String(), "chatty")
	defer chatty.conn.Close()
	g2, _ := core.NewCoflow("chatty/g", &core.Flow{ID: "c", Src: "w1", Dst: "w2", Size: 1})
	reg2, _ := wire.RegisterOf(g2)
	if err := chatty.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg2}); err != nil {
		t.Fatal(err)
	}
	stopBeat := make(chan struct{})
	var beatWG sync.WaitGroup
	beatWG.Add(1)
	go func() {
		defer beatWG.Done()
		tk := time.NewTicker(50 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-tk.C:
				if err := chatty.codec.Send(wire.Message{Type: wire.TypeHeartbeat}); err != nil {
					return
				}
			}
		}
	}()
	defer func() { close(stopBeat); beatWG.Wait() }()

	// The silent session must be dropped (its group unregistered).
	for {
		if _, _, err := coord.GroupStatus("quiet/g"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent session never timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The chatty session's group survives well past the timeout.
	time.Sleep(400 * time.Millisecond)
	if _, _, err := coord.GroupStatus("chatty/g"); err != nil {
		t.Errorf("heartbeating session dropped: %v", err)
	}
}

// An agent that sends nothing but is actively and successfully being pushed
// to is not dead: the read deadline is re-armed as long as outbound sends
// land within the window. Once the pushes stop, the session times out.
func TestSessionSurvivesOnOutboundActivity(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2")
	coord, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		SessionTimeout: 150 * time.Millisecond, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = coord.Serve(ctx, ln) }()
	defer wg.Wait()
	defer cancel()

	// The watcher registers a group, then never sends again — but keeps
	// draining its socket, as any live agent does.
	watcher := dialRaw(t, ln.Addr().String(), "watcher")
	defer watcher.conn.Close()
	ga, _ := core.NewCoflow("watch/g", &core.Flow{ID: "q", Src: "w1", Dst: "w2", Size: 1})
	rega, _ := wire.RegisterOf(ga)
	if err := watcher.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &rega}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := watcher.codec.Recv(); err != nil {
				return
			}
		}
	}()

	// The driver's flow releases re-solve the shared w1->w2 port, so every
	// event pushes a fresh allocation delta to the watcher.
	driver := dialRaw(t, ln.Addr().String(), "driver")
	defer driver.conn.Close()
	var driverFlows []*core.Flow
	for i := 0; i < 12; i++ {
		driverFlows = append(driverFlows, &core.Flow{ID: fmt.Sprintf("b%d", i), Src: "w1", Dst: "w2", Size: 100})
	}
	gb, _ := core.NewCoflow("drive/g", driverFlows...)
	regb, _ := wire.RegisterOf(gb)
	if err := driver.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &regb}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := driver.codec.Recv(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 12; i++ {
		if err := driver.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
			FlowEvent: &wire.FlowEvent{GroupID: "drive/g", FlowID: fmt.Sprintf("b%d", i), Event: wire.EventReleased}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond)
	}
	// 720ms of inbound silence — nearly 5 timeout windows — but the pushes
	// kept the watcher alive.
	if _, _, err := coord.GroupStatus("watch/g"); err != nil {
		t.Fatalf("pushed-to session dropped despite outbound activity: %v", err)
	}

	// Driver hangs up; with no more flow events there are no more pushes,
	// and the still-silent watcher must now time out.
	driver.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := coord.GroupStatus("watch/g"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent session never timed out after pushes stopped")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
