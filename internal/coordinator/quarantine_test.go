package coordinator

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/wire"
)

// startQuarantineServer is startServer with a quarantine window, on a
// Manual clock: the window expires only when the test advances it.
func startQuarantineServer(t *testing.T, quarantine time.Duration) (*Coordinator, *clock.Manual, string, func()) {
	t.Helper()
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2", "w3")
	clk := clock.NewManual(time.Unix(1000, 0))
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		QuarantineTimeout: quarantine, Clock: clk, Logf: t.Logf,
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
	return c, clk, ln.Addr().String(), func() { cancel(); wg.Wait() }
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Parking keeps the group's accumulated state and counts it exactly once in
// the Eq. 4 objective; the rejoin adopts that state instead of resetting it.
// Driven in-process on a Manual clock so the tardiness arithmetic is exact.
func TestQuarantineParkedTardinessCountedOnce(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(10, "w1", "w2", "w3")
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		QuarantineTimeout: time.Hour, Clock: clk, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	// Head flow finished 2s after a reference of 0: tardiness 2, weight 1.
	want := c.TotalTardiness()
	if !want.ApproxEq(2) {
		t.Fatalf("pre-park TotalTardiness = %v, want 2", want)
	}

	// The owner dies. The group parks; its tardiness neither vanishes nor
	// doubles, and it stays frozen while parked.
	c.dropSession(&session{agent: "a1"})
	if !c.GroupParked("job/pp") {
		t.Fatal("group not parked after owner death")
	}
	if got := c.TotalTardiness(); got != want {
		t.Errorf("parked TotalTardiness = %v, want %v", got, want)
	}
	clk.Advance(10 * time.Second)
	if got := c.TotalTardiness(); got != want {
		t.Errorf("TotalTardiness drifted to %v while parked, want %v", got, want)
	}

	// Rejoin through the public API: the parked group is adopted with
	// exactly one reschedule, and the achieved tardiness carries over.
	n := c.Reschedules()
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatalf("rejoin registration: %v", err)
	}
	if c.GroupParked("job/pp") {
		t.Error("group still parked after rejoin")
	}
	if got := c.Reschedules(); got != n+1 {
		t.Errorf("rejoin ran %d reschedules, want exactly 1", got-n)
	}
	if got := c.TotalTardiness(); got != want {
		t.Errorf("post-rejoin TotalTardiness = %v, want %v", got, want)
	}
	// The group is live again, so a duplicate registration is an error.
	if err := c.RegisterGroup("a1", g); err == nil {
		t.Error("duplicate registration of revived group accepted")
	}
}

// A reconnecting agent revives its parked groups with exactly one
// reschedule; the re-register it replays afterwards is a no-op.
func TestQuarantineRejoinReschedulesOnce(t *testing.T) {
	coord, _, addr, stop := startQuarantineServer(t, 30*time.Second)
	defer stop()

	a := dialRaw(t, addr, "a1")
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
		t.Fatalf("allocation = %v", rates)
	}

	a.conn.Close()
	waitFor(t, "park", func() bool { return coord.GroupParked("job/pp") })
	// Parking zeroes the rates with one reschedule, taken under the same
	// lock that parks, so the count is stable once GroupParked reports true.
	nPark := coord.Reschedules()

	b := dialRaw(t, addr, "a1")
	defer b.conn.Close()
	waitFor(t, "revive", func() bool { return !coord.GroupParked("job/pp") })
	if got := coord.Reschedules(); got != nPark+1 {
		t.Errorf("rejoin ran %d reschedules, want exactly 1", got-nPark)
	}

	// The restarted agent re-announces the group it still owns — a no-op —
	// then registers a fresh one. Neither adds a reschedule.
	if err := b.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	g2, _ := core.NewCoflow("job/extra", &core.Flow{ID: "x", Src: "w1", Dst: "w3", Size: 5})
	reg2, _ := wire.RegisterOf(g2)
	if err := b.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second registration", func() bool {
		_, _, err := coord.GroupStatus("job/extra")
		return err == nil
	})
	if got := coord.Reschedules(); got != nPark+1 {
		t.Errorf("re-register rescheduled (%d calls past rejoin), want none", got-nPark-1)
	}

	// Scheduling runs normally after the rejoin. The fresh session may first
	// receive the revive push (f0's state), so read until f1 shows up.
	if err := b.codec.Send(wire.Message{Type: wire.TypeFlowEvent,
		FlowEvent: &wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased}}); err != nil {
		t.Fatal(err)
	}
	// f1's rate may legitimately be zero while f0 monopolizes the shared
	// port; what matters is that the revived group is being scheduled at all.
	for i := 0; ; i++ {
		rates := b.recvAllocation(t)
		if _, ok := rates["f1"]; ok {
			break
		}
		if i > 5 {
			t.Fatalf("f1 never allocated; last push %v", rates)
		}
	}
}

// An expired quarantine evicts; a rejoin beats the timer and the stale timer
// then fires harmlessly. Both timers fire inside the test's Advance, so the
// outcome is read right after it.
func TestQuarantineEviction(t *testing.T) {
	coord, clk, addr, stop := startQuarantineServer(t, 150*time.Millisecond)
	defer stop()

	a := dialRaw(t, addr, "a1")
	g := pipelineGroup(t)
	reg, _ := wire.RegisterOf(g)
	if err := a.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "registration", func() bool {
		_, _, err := coord.GroupStatus("job/pp")
		return err == nil
	})
	a.conn.Close()
	waitFor(t, "park", func() bool { return coord.GroupParked("job/pp") })
	clk.Advance(150 * time.Millisecond)
	if _, _, err := coord.GroupStatus("job/pp"); err == nil {
		t.Fatal("expired quarantine did not evict")
	}

	// Round two: rejoin inside the window. The group must survive the old
	// timer's expiry because the park generation moved on.
	b := dialRaw(t, addr, "a1")
	if err := b.codec.Send(wire.Message{Type: wire.TypeRegister, Register: &reg}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-registration", func() bool {
		_, _, err := coord.GroupStatus("job/pp")
		return err == nil
	})
	b.conn.Close()
	waitFor(t, "park", func() bool { return coord.GroupParked("job/pp") })
	c2 := dialRaw(t, addr, "a1")
	defer c2.conn.Close()
	waitFor(t, "revive", func() bool { return !coord.GroupParked("job/pp") })
	clk.Advance(150 * time.Millisecond) // the stale eviction timer fires
	if _, _, err := coord.GroupStatus("job/pp"); err != nil {
		t.Errorf("stale quarantine timer evicted a revived group: %v", err)
	}
}

// Parked groups are invisible to the scheduler: their flows hold zero rate
// and competing groups get the capacity.
func TestQuarantineFreesBandwidth(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	netModel := fabric.NewNetwork()
	netModel.AddUniformHosts(1, "w1", "w2")
	c, err := New(Options{
		Net: netModel, Scheduler: sched.EchelonMADD{Backfill: true},
		QuarantineTimeout: time.Hour, Clock: clk, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := core.NewCoflow("g1", &core.Flow{ID: "x", Src: "w1", Dst: "w2", Size: 5})
	g2, _ := core.NewCoflow("g2", &core.Flow{ID: "y", Src: "w1", Dst: "w2", Size: 5})
	if err := c.RegisterGroup("a", g1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("b", g2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "g1", FlowID: "x", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "g2", FlowID: "y", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	c.dropSession(&session{agent: "a"})
	rates, err := c.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rates["x"]; ok {
		t.Errorf("parked flow still allocated: %v", rates)
	}
	if rates["y"] < 0.9 {
		t.Errorf("surviving flow got %v of the freed link, want ~1", rates["y"])
	}
}
