package coordinator

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/wire"
)

// sessionQueueLen reports the depth of the named agent's outbound queue
// (test-only: peeks coordinator internals under the lock).
func (c *Coordinator) sessionQueueLen(agent string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.byName[agent]; s != nil {
		return len(s.out)
	}
	return 0
}

// hasEvent reports whether the log retains at least one event of the kind.
func hasEvent(log *telemetry.EventLog, kind string) bool {
	for _, e := range log.Tail(0) {
		if e.Kind == kind {
			return true
		}
	}
	return false
}

// A connected agent that stops reading its socket entirely must not wedge
// the coordinator: pushes to it are decoupled by the per-session writer, the
// write deadline declares the socket dead, and teardown parks its groups —
// all while other control-plane calls keep completing. net.Pipe has no
// kernel buffer, so the very first frame to the stalled peer blocks the
// writer, which is the regression the session goroutine used to hit inline.
func TestStalledSocketCannotWedgeCoordinator(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2", "w3")
	events := telemetry.NewEventLog(256)
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		WriteTimeout: 150 * time.Millisecond, QuarantineTimeout: time.Hour,
		Events: events, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	defer cli.Close()
	done := make(chan struct{})
	go func() { defer close(done); c.handleConn(context.Background(), srv) }()

	codec := wire.NewCodec(cli)
	if err := codec.Send(wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Agent: "stuck", Version: wire.ProtocolVersion}}); err != nil {
		t.Fatal(err)
	}
	g, _ := core.NewCoflow("stuck/g", &core.Flow{ID: "f", Src: "w1", Dst: "w2", Size: 100})
	reg, _ := wire.RegisterOf(g)
	if err := codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	// The release triggers a reschedule whose allocation push lands on a pipe
	// nobody is reading. From here on the client never reads again.
	if err := codec.Send(wire.Message{Type: wire.TypeFlowEvent,
		FlowEvent: &wire.FlowEvent{GroupID: "stuck/g", FlowID: "f", Event: wire.EventReleased}}); err != nil {
		t.Fatal(err)
	}

	// The coordinator lock must stay available while the writer is blocked on
	// the dead pipe.
	regDone := make(chan error, 1)
	go func() {
		g2, _ := core.NewCoflow("live/g", &core.Flow{ID: "x", Src: "w2", Dst: "w3", Size: 1})
		regDone <- c.RegisterGroup("direct", g2)
	}()
	select {
	case err := <-regDone:
		if err != nil {
			t.Fatalf("concurrent RegisterGroup failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RegisterGroup blocked behind a stalled agent socket")
	}

	// The write deadline tears the session down and quarantines its group.
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("session never torn down after write deadline")
	}
	if !c.GroupParked("stuck/g") {
		t.Error("stalled agent's group not parked after teardown")
	}
}

// A session whose writer is stalled (injected AgentStall) fills its bounded
// outbound buffer with non-conflatable frames (error replies here); the next
// allocation push cannot even queue its placeholder, so the coordinator
// closes the session — emitting the overflow event — and keeps serving the
// healthy session at full speed. (Allocation bursts alone never overflow:
// they conflate into a single pending frame; see
// TestAllocationBurstConflatesWithoutOverflow.)
func TestSendOverflowTearsDownStalledSession(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2")
	events := telemetry.NewEventLog(256)
	reg := telemetry.NewRegistry()
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		SendBuffer: 1, QuarantineTimeout: time.Hour,
		Events: events, Metrics: reg, Logf: t.Logf,
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
	go func() { defer wg.Done(); _ = c.Serve(ctx, ln) }()
	defer wg.Wait()
	defer cancel()
	addr := ln.Addr().String()

	watcher := dialRaw(t, addr, "watcher")
	defer watcher.conn.Close()
	ga, _ := core.NewCoflow("watch/g", &core.Flow{ID: "q", Src: "w1", Dst: "w2", Size: 1})
	rega, _ := wire.RegisterOf(ga)
	if err := watcher.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &rega}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := c.GroupStatus("watch/g"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registration never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stall the watcher's writer, then have it provoke error replies (flow
	// events for a group that does not exist). Errors are lifecycle frames —
	// no conflation — so the first occupies the writer for 10s and the next
	// fills the 1-slot buffer.
	if err := c.SetAgentStall("watcher", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := watcher.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
			FlowEvent: &wire.FlowEvent{GroupID: "nope/g", FlowID: "x", Event: wire.EventReleased}}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the replies have actually clogged the queue: the watcher's
	// worker runs asynchronously from this test goroutine.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if c.sessionQueueLen("watcher") >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("error replies never queued behind the stalled writer")
		}
		time.Sleep(5 * time.Millisecond)
	}

	driver := dialRaw(t, addr, "driver")
	defer driver.conn.Close()
	var flows []*core.Flow
	for i := 0; i < 6; i++ {
		flows = append(flows, &core.Flow{ID: fmt.Sprintf("b%d", i), Src: "w1", Dst: "w2", Size: 100})
	}
	gb, _ := core.NewCoflow("drive/g", flows...)
	regb, _ := wire.RegisterOf(gb)
	if err := driver.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &regb}); err != nil {
		t.Fatal(err)
	}
	// Each release re-solves the shared w1->w2 port, pushing a delta to both
	// sessions. The driver reading its own allocation synchronously proves
	// the control plane never stalls behind the stuck watcher.
	for i := 0; i < 6; i++ {
		if err := driver.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
			FlowEvent: &wire.FlowEvent{GroupID: "drive/g", FlowID: fmt.Sprintf("b%d", i), Event: wire.EventReleased}}); err != nil {
			t.Fatal(err)
		}
		driver.recvAllocation(t)
	}

	for {
		if c.GroupParked("watch/g") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled session never torn down on send overflow")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := reg.Counter(MetricSendOverflow, "").Value(); got == 0 {
		t.Error("send overflow counter not incremented")
	}
	if !hasEvent(events, telemetry.EventSendOverflow) {
		t.Error("no send-overflow event emitted")
	}
}

// A burst of flow events from a healthy agent must never overflow the
// outbound queue, however small: allocation deltas conflate into a single
// pending frame while the writer catches up. (Regression: the async-writer
// split let a tight event loop outrun the per-frame syscall rate, and the
// coordinator tore down live loadgen sessions mid-burst.)
func TestAllocationBurstConflatesWithoutOverflow(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2")
	events := telemetry.NewEventLog(256)
	reg := telemetry.NewRegistry()
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		SendBuffer: 1, QuarantineTimeout: time.Hour,
		Events: events, Metrics: reg, Logf: t.Logf,
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
	go func() { defer wg.Done(); _ = c.Serve(ctx, ln) }()
	defer wg.Wait()
	defer cancel()

	a := dialRaw(t, ln.Addr().String(), "burster")
	defer a.conn.Close()
	const nFlows = 64
	var flows []*core.Flow
	for i := 0; i < nFlows; i++ {
		flows = append(flows, &core.Flow{ID: fmt.Sprintf("f%d", i), Src: "w1", Dst: "w2", Size: 100})
	}
	g, _ := core.NewCoflow("burst/g", flows...)
	regMsg, _ := wire.RegisterOf(g)
	if err := a.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &regMsg}); err != nil {
		t.Fatal(err)
	}
	// Blast every release without reading a single push: each one re-solves
	// the shared port and broadcasts a delta into the 1-slot queue.
	for i := 0; i < nFlows; i++ {
		if err := a.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
			FlowEvent: &wire.FlowEvent{GroupID: "burst/g", FlowID: fmt.Sprintf("f%d", i), Event: wire.EventReleased}}); err != nil {
			t.Fatal(err)
		}
	}
	// Liveness after the burst: a fresh release still round-trips, so the
	// session survived and the writer caught up.
	g2, _ := core.NewCoflow("probe/g", &core.Flow{ID: "p0", Src: "w2", Dst: "w1", Size: 1})
	reg2, _ := wire.RegisterOf(g2)
	if err := a.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg2}); err != nil {
		t.Fatal(err)
	}
	if err := a.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
		FlowEvent: &wire.FlowEvent{GroupID: "probe/g", FlowID: "p0", Event: wire.EventReleased}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rates := a.recvAllocation(t)
		if _, ok := rates["p0"]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe flow never allocated after burst")
		}
	}
	if got := reg.Counter(MetricSendOverflow, "").Value(); got != 0 {
		t.Errorf("send overflow counter = %d during healthy burst, want 0", got)
	}
	if hasEvent(events, telemetry.EventSendOverflow) {
		t.Error("send-overflow event emitted during healthy burst")
	}
	if c.GroupParked("burst/g") {
		t.Error("healthy burster's group parked; session was torn down")
	}
}

// A scheduler pass blowing its deadline budget degrades to the fair fallback
// (narrated by exactly one transition event) instead of stalling event
// handling; when the stall clears, the next pass recovers the primary.
func TestSchedulerDeadlineDegradeAndRecover(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2")
	events := telemetry.NewEventLog(256)
	reg := telemetry.NewRegistry()
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		SchedDeadline: 25 * time.Millisecond, DeadlineTripAfter: 100,
		Events: events, Metrics: reg, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := core.NewCoflow("job/g",
		&core.Flow{ID: "f0", Src: "w1", Dst: "w2", Size: 100},
		&core.Flow{ID: "f1", Src: "w1", Dst: "w2", Size: 100})
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if c.SchedDegraded() {
		t.Fatal("degraded before any overrun")
	}

	// 6x-the-budget stall: the pass is abandoned mid-flight and the fallback
	// allocation comes back immediately.
	if err := c.SetSchedStall(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rates, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/g", FlowID: "f0", Event: wire.EventReleased})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Errorf("degraded pass took %v; deadline budget not enforced", elapsed)
	}
	if rates["f0"] <= 0 {
		t.Fatalf("fallback allocation = %v, want f0 > 0", rates)
	}
	if !c.SchedDegraded() {
		t.Fatal("coordinator not degraded after overrun")
	}
	if !hasEvent(events, telemetry.EventDegrade) {
		t.Error("no sched-degrade event emitted")
	}
	if got := reg.Counter(MetricSchedDegraded, "", "reason", "overrun").Value(); got == 0 {
		t.Error("overrun-reason degrade counter not incremented")
	}

	// Clear the stall, then drive one more event. While degraded it is
	// batched (deadline-bounded), so force the flush; the unstalled primary
	// completes and the regime recovers.
	if err := c.SetSchedStall(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/g", FlowID: "f1", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	rates, err = c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rates["f1"] <= 0 {
		t.Fatalf("post-recovery allocation = %v, want f1 > 0", rates)
	}
	if c.SchedDegraded() {
		t.Error("still degraded after the stall cleared")
	}
	if !hasEvent(events, telemetry.EventRecover) {
		t.Error("no sched-recover event emitted")
	}
	if got := reg.Counter(MetricSchedRecoveries, "").Value(); got == 0 {
		t.Error("recovery counter not incremented")
	}
}

// While degraded, flow events are batched into the soft coalescing window
// even with coalescing otherwise off: event handling stays deadline-bounded
// instead of running one degraded pass per event.
func TestDegradedEventsAreBatched(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2")
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		SchedDeadline: 25 * time.Millisecond, DeadlineTripAfter: 100, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var flows []*core.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, &core.Flow{ID: fmt.Sprintf("f%d", i), Src: "w1", Dst: "w2", Size: 100})
	}
	g, _ := core.NewCoflow("job/g", flows...)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSchedStall(150 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/g", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	if !c.SchedDegraded() {
		t.Fatal("not degraded after overrun")
	}
	before := c.Reschedules()
	for i := 1; i < 4; i++ {
		rates, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/g", FlowID: fmt.Sprintf("f%d", i), Event: wire.EventReleased})
		if err != nil {
			t.Fatal(err)
		}
		if rates != nil {
			t.Fatalf("degraded event %d rescheduled immediately, want batched", i)
		}
	}
	if got := c.Reschedules(); got != before {
		t.Fatalf("degraded events ran %d immediate reschedules", got-before)
	}
	if err := c.SetSchedStall(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := c.Reschedules(); got != before+1 {
		t.Errorf("batch drained into %d reschedules, want 1", got-before)
	}
}

// Job submissions above the inbound high-water mark are shed with the typed
// throttled error; the session survives the refusal.
func TestSubmitShedAboveHighWater(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2")
	events := telemetry.NewEventLog(64)
	reg := telemetry.NewRegistry()
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		ShedHighWater: 1, Events: events, Metrics: reg, Logf: t.Logf,
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
	go func() { defer wg.Done(); _ = c.Serve(ctx, ln) }()
	defer wg.Wait()
	defer cancel()

	s := dialRaw(t, ln.Addr().String(), "submitter")
	defer s.conn.Close()
	// Simulate a backlog of in-flight events from other sessions.
	c.inboundDepth.Add(8)
	defer c.inboundDepth.Add(-8)
	if err := s.codec.Send(wire.Message{Type: wire.TypeSubmitJob,
		SubmitJob: &wire.SubmitJob{Job: wire.JobSpec{
			ID: "j1", Paradigm: "dp", Workers: 2, Layers: 1, Iterations: 1}}}); err != nil {
		t.Fatal(err)
	}
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := s.codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != wire.TypeError || msg.Error.Code != wire.ErrCodeThrottled {
		t.Fatalf("want throttled error, got %+v", msg)
	}
	if got := reg.Counter(MetricShedSubmissions, "").Value(); got == 0 {
		t.Error("shed counter not incremented")
	}
	if !hasEvent(events, telemetry.EventShed) {
		t.Error("no submission-shed event emitted")
	}
	// The session is still usable after the refusal.
	if err := s.codec.Send(wire.Message{Type: wire.TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if msg, err := s.codec.Recv(); err != nil || msg.Type != wire.TypeHeartbeat {
		t.Fatalf("heartbeat after shed: %v, %v", msg.Type, err)
	}
}

// An agent that stops echoing RTT pings is soft-quarantined on censored
// observations (it never has to answer to be judged); once it echoes
// promptly again, hysteresis releases it.
func TestStragglerSoftQuarantineAndRelease(t *testing.T) {
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2")
	events := telemetry.NewEventLog(256)
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		StragglerRTT: 40 * time.Millisecond, PingInterval: 10 * time.Millisecond,
		Events: events, Logf: t.Logf,
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
	go func() { defer wg.Done(); _ = c.Serve(ctx, ln) }()
	defer wg.Wait()
	defer cancel()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	codec := wire.NewCodec(conn)
	if err := codec.Send(wire.Message{Type: wire.TypeHello,
		Hello: &wire.Hello{Agent: "lag", Version: wire.ProtocolVersion}}); err != nil {
		t.Fatal(err)
	}

	// Phase 1: swallow pings without echoing. The censored-observation path
	// must trip the quarantine from ping age alone.
	deadline := time.Now().Add(10 * time.Second)
	for !c.AgentSoftQuarantined("lag") {
		if time.Now().After(deadline) {
			t.Fatal("never soft-quarantined despite unanswered pings")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !hasEvent(events, telemetry.EventSoftQuar) {
		t.Error("no soft-quarantine event emitted")
	}

	// Phase 2: echo every ping promptly; the EWMA decays below the release
	// threshold (half the straggler RTT).
	echoCtx, echoStop := context.WithCancel(context.Background())
	var echoWG sync.WaitGroup
	defer func() {
		echoStop()
		conn.SetReadDeadline(time.Now()) // wake the pending Recv
		echoWG.Wait()
	}()
	echoWG.Add(1)
	go func() {
		defer echoWG.Done()
		for {
			if echoCtx.Err() != nil {
				return
			}
			conn.SetReadDeadline(time.Now().Add(time.Second))
			msg, err := codec.Recv()
			if err != nil {
				if echoCtx.Err() != nil {
					return
				}
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					continue
				}
				return
			}
			if msg.Type == wire.TypeHeartbeat && msg.Heartbeat != nil && msg.Heartbeat.Nonce != 0 {
				if err := codec.Send(msg); err != nil {
					return
				}
			}
		}
	}()
	for c.AgentSoftQuarantined("lag") {
		if time.Now().After(deadline) {
			t.Fatal("never released from soft quarantine despite prompt echoes")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !hasEvent(events, telemetry.EventSoftRelease) {
		t.Error("no soft-release event emitted")
	}
}
