package coordinator

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// newCoalesceCoordinator builds a coordinator with an hour-long coalescing
// window (the tests never advance the clock that far; Drain closes batches)
// and the incremental scheduler path enabled.
func newCoalesceCoordinator(t *testing.T, clk *clock.Manual, reg *telemetry.Registry) *Coordinator {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	c, err := New(Options{
		Net:       net,
		Scheduler: sched.NewDelta(sched.EchelonMADD{Backfill: true}),
		Coalesce:  time.Hour,
		Clock:     clk,
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
	clk := clock.NewManual(time.Unix(1000, 0))
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
	clk := clock.NewManual(time.Unix(1000, 0))
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
	clk := clock.NewManual(time.Unix(1000, 0))
	opts := func() Options {
		net := fabric.NewNetwork()
		net.AddUniformHosts(10, "w1", "w2", "w3")
		return Options{
			Net:               net,
			Scheduler:         sched.NewDelta(sched.EchelonMADD{Backfill: true}),
			Coalesce:          time.Hour,
			QuarantineTimeout: time.Hour,
			SnapshotEvery:     3, // force snapshot+prime inside the history
			Clock:             clk,
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
	clk.Advance(3 * time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
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
	clk := clock.NewManual(time.Unix(1000, 0))
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	fail := false
	reg := telemetry.NewRegistry()
	c, err := New(Options{
		Net:               net,
		Scheduler:         flakySched{inner: sched.EchelonMADD{Backfill: true}, fail: &fail},
		QuarantineTimeout: time.Hour,
		Clock:             clk,
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

// A coalesced run on a Manual clock writes the same WAL, byte for byte, every
// time: a batch drains when the script's clock crosses its window, never when
// a goroutine gets round to it. Each batch's resched record carries its
// window's end and lies between the frames on either side of that instant; a
// frame landing exactly at a window's end follows the drain.
func TestCoalescedWALDeterministic(t *testing.T) {
	const win = 2 * time.Millisecond
	ev := func(gid, fid, event string) wire.FlowEvent {
		return wire.FlowEvent{GroupID: gid, FlowID: fid, Event: event}
	}
	script := []struct {
		at    time.Duration
		frame []wire.FlowEvent
	}{
		{0, []wire.FlowEvent{ev("ga", "f0", wire.EventReleased), ev("gb", "h0", wire.EventReleased)}},
		{500 * time.Microsecond, []wire.FlowEvent{ev("ga", "f1", wire.EventReleased)}},
		{1900 * time.Microsecond, []wire.FlowEvent{ev("gb", "h1", wire.EventReleased)}},
		{3 * time.Millisecond, []wire.FlowEvent{ev("gb", "h1", wire.EventFinished)}},
		{5 * time.Millisecond, []wire.FlowEvent{ev("ga", "f0", wire.EventFinished)}},
		{9 * time.Millisecond, []wire.FlowEvent{ev("gb", "h0", wire.EventFinished), ev("ga", "f1", wire.EventFinished)}},
	}
	wantKinds := "register register flow flow flow resched flow resched flow resched flow resched"
	wantResched := []time.Duration{2 * time.Millisecond, 5 * time.Millisecond, 7 * time.Millisecond, 11 * time.Millisecond}

	run := func() (wal []byte, dir string) {
		t0 := time.Unix(1000, 0)
		clk := clock.NewManual(t0)
		opts := frameOpts(t, clk, 3)
		opts.Coalesce, opts.GroupCommit = win, time.Hour
		dir = t.TempDir()
		c, err := Restore(opts, dir)
		if err != nil {
			t.Fatal(err)
		}
		ga, gb := contendingGroups(t)
		for _, g := range []*core.EchelonFlow{ga, gb} {
			if err := c.RegisterGroup("a1", g); err != nil {
				t.Fatal(err)
			}
		}
		s := attachSession(c, "a1")
		for _, step := range script {
			clk.Set(t0.Add(step.at))
			msg := wire.Message{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: step.frame}}
			if err := c.handleMessage(s, msg); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(win) // the last window ends
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		wal, err = os.ReadFile(filepath.Join(dir, "wal"))
		if err != nil {
			t.Fatal(err)
		}
		return wal, dir
	}

	first, dir := run()
	recs, kinds := walRecords(t, dir)
	if kinds != "genesis "+wantKinds {
		t.Fatalf("WAL kinds %q, want genesis %s", kinds, wantKinds)
	}
	var got []unit.Time
	for _, r := range recs {
		if r.Kind == jResched {
			got = append(got, r.At)
		}
	}
	for i, d := range wantResched {
		if got[i] != unit.Time(d.Seconds()) {
			t.Errorf("resched %d at %v, want the window's end %v", i, got[i], unit.Time(d.Seconds()))
		}
	}
	for i := 1; i < 50; i++ {
		if wal, _ := run(); !bytes.Equal(wal, first) {
			t.Fatalf("run %d wrote a different WAL (%d bytes vs %d)", i, len(wal), len(first))
		}
	}
}
