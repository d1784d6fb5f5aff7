package coordinator

import (
	"fmt"
	"os"
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

// Deadline settings for the tests below. They run on fakeClock, on which a
// pass takes no time: a pass overruns exactly when the injected stall
// exceeds the budget.
const (
	testBudget = 50 * time.Millisecond
	testStall  = 75 * time.Millisecond
)

// countingSched counts the primary passes the coordinator runs.
type countingSched struct {
	inner sched.Scheduler
	calls *int
}

func (s countingSched) Name() string { return "counting" }

func (s countingSched) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	*s.calls++
	return s.inner.Schedule(snap, net)
}

// degradedCounter reads the fallback-pass counter for one reason.
func degradedCounter(reg *telemetry.Registry, reason string) uint64 {
	return reg.Counter(MetricSchedDegraded, "", "reason", reason).Value()
}

// Regression: replay ran every pass on the primary (the deadline wrapper's
// Bypass), so a WAL tail written during a degrade episode restored with
// primary rates — and the remaining volumes they integrate to — where live
// had pushed max-min fair ones. The episode here spans a compaction: the
// threshold is crossed while fallback rates are in force, and the snapshot
// waits for the primary pass that ends the episode. Live and replayed
// coordinators are compared after every step, on the full-pass scheduler and
// on the delta path.
func TestRestoreThroughDegradeEpisode(t *testing.T) {
	for _, delta := range []bool{false, true} {
		dir := t.TempDir()
		clk := &fakeClock{t: time.Unix(1000, 0)}
		opts := func() Options {
			o := frameOpts(t, clk.now, 4)
			if !delta {
				o.Scheduler = sched.EchelonMADD{Backfill: true}
			}
			o.SchedDeadline, o.DeadlineTripAfter, o.SnapshotEvery = testBudget, 1<<20, 3
			o.Logf = func(string, ...interface{}) {}
			return o
		}
		c, err := Restore(opts(), dir)
		if err != nil {
			t.Fatal(err)
		}
		ga, gb := contendingGroups(t)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		flow := func(gid, id, event string) func() {
			return func() {
				_, err := c.FlowEvent(wire.FlowEvent{GroupID: gid, FlowID: id, Event: event})
				must(err)
				_, err = c.Drain() // a degraded coordinator batches; flush at this instant
				must(err)
			}
		}
		stall := func(d time.Duration) func() { return func() { must(c.SetSchedStall(d)) } }
		tick := func() { _, err := c.Tick(); must(err) }
		steps := []struct {
			name string
			do   func()
		}{
			{"register", func() { must(c.RegisterGroup("a1", ga)); must(c.RegisterGroup("a2", gb)) }},
			{"release f0", flow("ga", "f0", wire.EventReleased)},
			{"release h0", flow("gb", "h0", wire.EventReleased)},
			{"release h1", flow("gb", "h1", wire.EventReleased)},
			{"stall", stall(testStall)},
			{"release f1 (fallback)", flow("ga", "f1", wire.EventReleased)},
			{"tick (fallback)", tick},
			{"finish h1 (fallback)", flow("gb", "h1", wire.EventFinished)},
			{"capacity (fallback)", func() { must(c.SetCapacity("w1", 8, 10)) }},
			{"clear the stall", stall(0)},
			{"tick (primary, ends the episode)", tick},
			{"finish f0 (primary)", flow("ga", "f0", wire.EventFinished)},
			{"tick", tick},
		}
		for _, step := range steps {
			clk.advance(1500 * time.Millisecond)
			step.do()
			c2 := replayed(t, opts(), dir)
			diffDigests(t, digestOf(c), digestOf(c2))
			if t.Failed() {
				t.Fatalf("delta=%v: live and replayed coordinators differ after %q", delta, step.name)
			}
			switch step.name {
			case "capacity (fallback)":
				if !c.SchedDegraded() {
					t.Fatal("the stall did not degrade the scheduler")
				}
				if c.journalEvents < c.opts.SnapshotEvery {
					t.Fatalf("journalEvents %d: the episode never crossed the compaction threshold", c.journalEvents)
				}
				recs, _ := walRecords(t, dir)
				fallbacks := 0
				for _, r := range recs {
					if r.Fallback {
						fallbacks++
					}
				}
				if fallbacks < 4 {
					t.Fatalf("the WAL tail holds %d fallback records, want the episode's 4", fallbacks)
				}
			case "tick (primary, ends the episode)":
				if c.SchedDegraded() || c.journalEvents != 0 {
					t.Fatalf("after the episode: degraded %v, journalEvents %d; want recovered and compacted", c.SchedDegraded(), c.journalEvents)
				}
			}
		}
		c.Close()
	}
}

// A record without the fallback bit replays the primary scheduler,
// unbounded: the parent's journal fixtures, none of whose records carries
// the bit, restore to the same digest under a budget no replayed pass could
// meet (a clock that moves milliseconds per read, against a one-millisecond
// budget) as without one.
func TestRestoreOldRecordReplaysPrimary(t *testing.T) {
	for _, name := range []string{"tail", "compacted"} {
		restore := func(budget time.Duration) digest {
			src := filepath.Join("testdata", "journal-pr30", name)
			dir := t.TempDir()
			for _, file := range []string{"wal", "snapshot"} {
				data, err := os.ReadFile(filepath.Join(src, file))
				if os.IsNotExist(err) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			recs, _ := walRecords(t, dir)
			for _, r := range recs {
				if r.Fallback {
					t.Fatalf("%s: fixture already carries a fallback record: %+v", name, r)
				}
			}
			clk := &tickingClock{t: time.Unix(20000, 0)}
			opts := jobFrameOpts(t, clk.now)
			opts.SchedDeadline = budget
			c := replayed(t, opts, dir)
			if c.dirty {
				t.Errorf("%s: replay under budget %v ran a fallback", name, budget)
			}
			return digestOf(c)
		}
		diffDigests(t, restore(0), restore(time.Millisecond))
	}
}

// A pass that overruns or fails costs a breaker strike; DeadlineTripAfter
// consecutive strikes open the breaker, which serves the fallback without
// running the primary at all until DeadlineCooldown has passed on the
// injected clock. The probe after it runs the primary, and its success
// closes the breaker.
func TestDeadlineBreakerTripsAndRecovers(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := telemetry.NewRegistry()
	calls := 0
	opts := frameOpts(t, clk.now, 3)
	opts.Scheduler = countingSched{inner: sched.EchelonMADD{Backfill: true}, calls: &calls}
	opts.SchedDeadline, opts.DeadlineTripAfter, opts.DeadlineCooldown = testBudget, 2, 400*time.Millisecond
	opts.Metrics = reg
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := contendingGroups(t)
	if err := c.RegisterGroup("a1", ga); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "ga", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	tick := func() map[string]unit.Rate {
		t.Helper()
		rates, err := c.Tick()
		if err != nil {
			t.Fatal(err)
		}
		return rates
	}
	if err := c.SetSchedStall(testStall); err != nil {
		t.Fatal(err)
	}
	tick()
	tick()
	if got := degradedCounter(reg, "overrun"); got != 2 {
		t.Fatalf("overrun passes = %d, want 2", got)
	}
	// Open: the primary is not even attempted.
	before := calls
	clk.advance(399 * time.Millisecond)
	tick()
	if calls != before || degradedCounter(reg, "breaker-open") != 1 {
		t.Fatalf("breaker-open pass ran the primary %d times (breaker-open count %d)", calls-before, degradedCounter(reg, "breaker-open"))
	}
	// After the cooldown the next pass probes; with the stall cleared it
	// succeeds and closes the breaker.
	if err := c.SetSchedStall(0); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Millisecond)
	c.mu.Lock()
	snap := c.buildSnapshotLocked()
	c.mu.Unlock()
	primary, err := sched.EchelonMADD{Backfill: true}.Schedule(snap, c.opts.Net)
	if err != nil {
		t.Fatal(err)
	}
	if rates := tick(); rates["f0"] != primary["f0"] || calls != before+1 {
		t.Errorf("probe: rates %v, primary calls %d; want the primary's %v in one call", rates, calls-before, primary)
	}
	if c.SchedDegraded() || c.strikes != 0 {
		t.Errorf("after a successful probe: degraded %v, strikes %d", c.SchedDegraded(), c.strikes)
	}
}

// A primary pass that fails under a deadline is a strike, not an error: the
// fallback answers on the same snapshot, and the coordinator is degraded
// until a primary full pass succeeds.
func TestDeadlineErrorFallsBack(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := telemetry.NewRegistry()
	fail := false
	opts := frameOpts(t, clk.now, 3)
	opts.Scheduler = flakySched{inner: sched.EchelonMADD{Backfill: true}, fail: &fail, once: true}
	opts.SchedDeadline, opts.Metrics = testBudget, reg
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := contendingGroups(t)
	if err := c.RegisterGroup("a1", ga); err != nil {
		t.Fatal(err)
	}
	fail = true
	rates, err := c.FlowEvent(wire.FlowEvent{GroupID: "ga", FlowID: "f0", Event: wire.EventReleased})
	if err != nil {
		t.Fatalf("a failing primary under a deadline surfaced %v", err)
	}
	// Max-min fair gives the only active flow the whole 10 B/s port.
	if rates["f0"] != 10 || !c.SchedDegraded() || degradedCounter(reg, "error") != 1 {
		t.Fatalf("rates %v, degraded %v, error passes %d; want the fallback's 10", rates, c.SchedDegraded(), degradedCounter(reg, "error"))
	}
	if _, err := c.Tick(); err != nil || c.SchedDegraded() {
		t.Errorf("the next pass: err %v, degraded %v; want the primary back", err, c.SchedDegraded())
	}
}

// After a fallback pass the incremental scheduler's state describes a plan
// the fallback has since overwritten: delta reschedules run full until a
// primary full pass clears the dirty bit, and patch again after it.
func TestDeadlineDeltaGatesApplyAfterDegrade(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	reg := telemetry.NewRegistry()
	opts := frameOpts(t, clk.now, 4)
	opts.SchedDeadline, opts.Metrics = testBudget, reg
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two groups on disjoint hosts: an event on one patches it alone.
	for i, gid := range []string{"ga", "gb"} {
		src, dst := fmt.Sprintf("w%d", 2*i+1), fmt.Sprintf("w%d", 2*i+2)
		g, err := core.NewCoflow(gid,
			&core.Flow{ID: gid + "0", Src: src, Dst: dst, Size: 1000},
			&core.Flow{ID: gid + "1", Src: src, Dst: dst, Size: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterGroup("a1", g); err != nil {
			t.Fatal(err)
		}
	}
	applied := func() uint64 { return reg.Counter(MetricDeltaApplied, "").Value() }
	event := func(gid, id, ev string) {
		t.Helper()
		clk.advance(time.Second)
		if _, err := c.FlowEvent(wire.FlowEvent{GroupID: gid, FlowID: id, Event: ev}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	event("ga", "ga0", wire.EventReleased)
	event("gb", "gb0", wire.EventReleased)
	if applied() == 0 {
		t.Fatal("a clean coordinator never patched")
	}
	if err := c.SetSchedStall(testStall); err != nil {
		t.Fatal(err)
	}
	event("gb", "gb1", wire.EventReleased)
	if err := c.SetSchedStall(0); err != nil {
		t.Fatal(err)
	}
	before := applied()
	event("ga", "ga1", wire.EventReleased) // delta-eligible, but dirty: full
	if applied() != before || c.SchedDegraded() {
		t.Fatalf("after a fallback: %d patches, degraded %v; want one full primary pass", applied()-before, c.SchedDegraded())
	}
	event("gb", "gb1", wire.EventFinished)
	if applied() != before+1 {
		t.Errorf("after the clean full pass: %d patches, want 1", applied()-before)
	}
}
