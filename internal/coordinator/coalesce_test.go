package coordinator

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// newCoalesceCoordinator builds a coordinator with a long coalescing window
// (the wall timer never fires inside a test; Drain closes batches) and the
// incremental scheduler path enabled.
func newCoalesceCoordinator(t *testing.T, clk *fakeClock, reg *telemetry.Registry) *Coordinator {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	c, err := New(Options{
		Net:       net,
		Scheduler: sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}),
		Coalesce:  time.Hour,
		Clock:     clk.now,
		Logf:      t.Logf,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A burst of flow events inside the coalescing window defers into one batch:
// no reschedule runs until the batch drains, and the drain runs exactly one.
func TestCoalesceBatchesFlowEvents(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := telemetry.NewRegistry()
	c := newCoalesceCoordinator(t, clk, reg)
	defer c.Close()
	g1, _ := core.NewCoflow("g1", &core.Flow{ID: "x", Src: "w1", Dst: "w2", Size: 5})
	g2, _ := core.NewCoflow("g2", &core.Flow{ID: "y", Src: "w2", Dst: "w3", Size: 5})
	if err := c.RegisterGroup("a", g1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("a", g2); err != nil {
		t.Fatal(err)
	}
	before := c.Reschedules()
	rates, err := c.FlowEvent(wire.FlowEvent{GroupID: "g1", FlowID: "x", Event: wire.EventReleased})
	if err != nil {
		t.Fatal(err)
	}
	// The event is deferred: the allocation in force is unchanged, so the
	// hot path skips assembling it (nil map) — the new flow has no rate yet.
	if rates["x"] != 0 {
		t.Errorf("deferred release already granted rate %v", rates["x"])
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "g2", FlowID: "y", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	if got := c.Reschedules(); got != before {
		t.Errorf("coalesced events rescheduled %d time(s) before the drain", got-before)
	}
	rates, err = c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Reschedules(); got != before+1 {
		t.Errorf("batch drained into %d reschedules, want 1", got-before)
	}
	if rates["x"] <= 0 || rates["y"] <= 0 {
		t.Errorf("post-drain allocation = %v", rates)
	}
	if got := reg.Counter(MetricCoalescedEvents, "").Value(); got != 2 {
		t.Errorf("coalesced events counter = %v, want 2", got)
	}
	if got := reg.Counter(MetricCoalesceBatches, "").Value(); got != 1 {
		t.Errorf("batch counter = %v, want 1", got)
	}
	// The first drain ran cold (nothing for the incremental scheduler to
	// patch against) and fell back to a full pass; the next batch rides the
	// delta path against the captured state.
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "g1", FlowID: "x", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricDeltaApplied, "").Value(); got < 1 {
		t.Errorf("delta applied counter = %v, want >= 1", got)
	}
}

// Non-coalescible events flush the open batch before acting, so the journal
// order always matches the live decision order.
func TestCoalesceFlushOnNoncoalescibleEvent(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newCoalesceCoordinator(t, clk, nil)
	defer c.Close()
	g1, _ := core.NewCoflow("g1", &core.Flow{ID: "x", Src: "w1", Dst: "w2", Size: 5})
	if err := c.RegisterGroup("a", g1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "g1", FlowID: "x", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	if c.pending == nil {
		t.Fatal("no batch open after a coalesced event")
	}
	if _, err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if c.pending != nil {
		t.Error("tick left the coalescing batch open")
	}
	rates, err := c.Drain() // no batch: reports the allocation in force
	if err != nil {
		t.Fatal(err)
	}
	if rates["x"] <= 0 {
		t.Errorf("flow unscheduled after flush: %v", rates)
	}
}

// Crash-and-restore across coalesced batches is bit-for-bit: deferred flow
// records replay without a reschedule, resched records replay each batch
// boundary, and an open batch at crash time stays open (mutations applied,
// reschedule pending) exactly as it was live.
func TestCoalesceCrashRestoreBitForBit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	clk := &fakeClock{t: time.Unix(1000, 0)}
	opts := func() Options {
		net := fabric.NewNetwork()
		net.AddUniformHosts(10, "w1", "w2", "w3")
		return Options{
			Net:               net,
			Scheduler:         sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}),
			Coalesce:          time.Hour,
			QuarantineTimeout: time.Hour,
			SnapshotEvery:     3, // force snapshot+prime inside the history
			Clock:             clk.now,
			Logf:              t.Logf,
		}
	}
	c, err := Restore(opts(), dir)
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
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	clk.advance(3 * time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	// Leave a batch open at the crash: the finish is applied and journaled
	// (deferred), its reschedule still pending.
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	wantRef, wantTard, err := c.GroupStatus("job/pp")
	if err != nil {
		t.Fatal(err)
	}
	wantRem := make(map[string]unit.Bytes)
	for id, f := range c.groups["job/pp"].flows {
		wantRem[id] = f.remaining
	}
	c.Close()

	c2, err := Restore(opts(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	gotRef, gotTard, err := c2.GroupStatus("job/pp")
	if err != nil {
		t.Fatalf("group lost in restore: %v", err)
	}
	// Strict equality, not ApproxEq: replay must reproduce the fluid model
	// bit-for-bit across coalesced batch boundaries.
	if gotRef != wantRef || gotTard != wantTard {
		t.Errorf("restored ref/tardiness = %v/%v, want %v/%v", gotRef, gotTard, wantRef, wantTard)
	}
	for id, want := range wantRem {
		if got := c2.groups["job/pp"].flows[id].remaining; got != want {
			t.Errorf("restored remaining[%s] = %v, want %v", id, got, want)
		}
	}
	if !c2.GroupParked("job/pp") {
		t.Error("recovered group not quarantined")
	}
}

// flakySched delegates to a real scheduler until *fail is flipped, then
// errors on every Schedule call (with once set: on the next one only) — the
// fixture for rejoin failure paths.
type flakySched struct {
	inner sched.Scheduler
	fail  *bool
	once  bool
}

func (s flakySched) Name() string { return "flaky" }

func (s flakySched) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	if *s.fail {
		*s.fail = !s.once
		return nil, errors.New("induced scheduler failure")
	}
	return s.inner.Schedule(snap, net)
}

// Regression: a reschedule failure during an agent rejoin used to be logged
// and swallowed — the agent was told its rejoin succeeded while holding an
// allocation the scheduler never re-validated. The failure must propagate,
// the group must stay parked, and the error counter must move.
func TestRejoinRescheduleFailurePropagates(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	fail := false
	reg := telemetry.NewRegistry()
	c, err := New(Options{
		Net:               net,
		Scheduler:         flakySched{inner: sched.EchelonMADD{Backfill: true}, fail: &fail},
		QuarantineTimeout: time.Hour,
		Clock:             clk.now,
		Logf:              t.Logf,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	c.dropSession(&session{agent: "a1"})
	if !c.GroupParked("job/pp") {
		t.Fatal("group not parked after session drop")
	}

	fail = true
	if err := c.RegisterGroup("a1", g); err == nil {
		t.Fatal("rejoin with a failing scheduler reported success")
	}
	if !c.GroupParked("job/pp") {
		t.Error("group unparked although its rejoin reschedule failed")
	}
	if got := reg.Counter(MetricRescheduleErrors, "").Value(); got < 1 {
		t.Errorf("reschedule error counter = %v, want >= 1", got)
	}

	// Once the scheduler recovers, the same rejoin succeeds.
	fail = false
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatalf("rejoin after recovery: %v", err)
	}
	if c.GroupParked("job/pp") {
		t.Error("group still parked after successful rejoin")
	}
}
