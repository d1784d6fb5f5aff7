package sched_test

import (
	"errors"
	"testing"
	"time"

	"echelonflow/internal/coordinator"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// The coordinator is what instruments a scheduler: it times every call it
// makes and exports the counts under the scheduler's name. These tests drive
// schedulers from this package through it.

// stubScheduler counts calls and, while fail is set, fails them.
type stubScheduler struct {
	calls, errs int
	fail        bool
}

func (s *stubScheduler) Name() string { return "stub" }

func (s *stubScheduler) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	s.calls++
	if s.fail {
		s.errs++
		return nil, errors.New("stub failure")
	}
	return sched.Fair{}.Schedule(snap, net)
}

// countingDelta counts the incremental and full passes of a delta scheduler.
type countingDelta struct {
	*sched.DeltaEchelon
	schedules, applies int
}

func (s *countingDelta) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	s.schedules++
	return s.DeltaEchelon.Schedule(snap, net)
}

func (s *countingDelta) Apply(snap *sched.Snapshot, net fabric.Fabric, d sched.Delta) (map[string]unit.Rate, bool, error) {
	s.applies++
	return s.DeltaEchelon.Apply(snap, net, d)
}

func instrumentCoordinator(t *testing.T, s sched.Scheduler) (*coordinator.Coordinator, *telemetry.Registry) {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	reg := telemetry.NewRegistry()
	now := time.Unix(1000, 0)
	c, err := coordinator.New(coordinator.Options{
		Net:       net,
		Scheduler: s,
		Clock:     func() time.Time { return now },
		Logf:      t.Logf,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, reg
}

func instrumentPipeline(t *testing.T) *core.EchelonFlow {
	t.Helper()
	g, err := core.New("job/pp", core.Pipeline{T: 2},
		&core.Flow{ID: "f0", Src: "w1", Dst: "w2", Size: 20, Stage: 0},
		&core.Flow{ID: "f1", Src: "w1", Dst: "w2", Size: 20, Stage: 1},
		&core.Flow{ID: "f2", Src: "w1", Dst: "w2", Size: 20, Stage: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInstrumentCounters(t *testing.T) {
	stub := &stubScheduler{}
	c, reg := instrumentCoordinator(t, stub)
	if err := c.RegisterGroup("a1", instrumentPipeline(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	stub.fail = true
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased}); err == nil {
		t.Fatal("expected the scheduler's error to surface")
	}
	if stub.calls < 2 || stub.errs == 0 {
		t.Fatalf("stub saw %d calls, %d failed; want a success and a failure", stub.calls, stub.errs)
	}
	if got := reg.Counter(coordinator.MetricSchedCalls, "", "scheduler", "stub").Value(); got != uint64(stub.calls) {
		t.Errorf("calls = %d, want %d", got, stub.calls)
	}
	if got := reg.Counter(coordinator.MetricSchedErrors, "", "scheduler", "stub").Value(); got != uint64(stub.errs) {
		t.Errorf("errors = %d, want %d", got, stub.errs)
	}
	if got := reg.Histogram(coordinator.MetricSchedLat, "", "scheduler", "stub").Count(); got != uint64(stub.calls) {
		t.Errorf("latency observations = %d, want %d", got, stub.calls)
	}
}

// Plan-cache lookups on the delta path reach the exported counters when
// Apply returns, not at the next full Schedule.
func TestInstrumentedDeltaExportsCacheStats(t *testing.T) {
	cache := sched.NewPlanCache()
	ds := &countingDelta{DeltaEchelon: sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: cache})}
	c, reg := instrumentCoordinator(t, ds)
	name := ds.Name()
	check := func(step string) {
		t.Helper()
		hits := reg.Counter(coordinator.MetricPlanCacheHits, "", "scheduler", name).Value()
		misses := reg.Counter(coordinator.MetricPlanCacheMisses, "", "scheduler", name).Value()
		invals := reg.Counter(coordinator.MetricPlanCacheInvals, "", "scheduler", name).Value()
		if st := cache.Stats(); hits != st.Hits || misses != st.Misses || invals != st.Invalidations {
			t.Errorf("%s: exported hits/misses/invalidations %d/%d/%d, cache stats %+v", step, hits, misses, invals, st)
		}
	}
	if err := c.RegisterGroup("a1", instrumentPipeline(t)); err != nil {
		t.Fatal(err)
	}
	check("register")
	applyOnly := 0
	for _, ev := range []struct{ flow, event string }{
		{"f0", wire.EventReleased},
		{"f1", wire.EventReleased},
		{"f0", wire.EventFinished},
		{"f2", wire.EventReleased},
		{"f1", wire.EventFinished},
	} {
		schedules, applies := ds.schedules, ds.applies
		lookups := cache.Stats().Hits + cache.Stats().Misses
		if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: ev.flow, Event: ev.event}); err != nil {
			t.Fatal(err)
		}
		check(ev.flow + " " + ev.event)
		if ds.schedules == schedules && ds.applies > applies && cache.Stats().Hits+cache.Stats().Misses > lookups {
			applyOnly++
		}
	}
	if applyOnly == 0 {
		t.Errorf("no event was served by an Apply that consulted the plan cache (%d applies, %d full passes)",
			ds.applies, ds.schedules)
	}
}
