package sched_test

import (
	"strings"
	"testing"

	"echelonflow/internal/sched"
	"echelonflow/internal/wire"
)

// The deprecated handle counts every InvalidateGroup call, records no hits
// or misses however many passes run, and is returned by both accessors; a
// nil handle ignores invalidations.
func TestPlanCacheInvalidation(t *testing.T) {
	cache := sched.NewPlanCache()
	e := sched.EchelonMADD{Backfill: true, Cache: cache}
	if e.PlanCache() != cache || sched.NewDelta(e).PlanCache() != cache {
		t.Fatal("an accessor does not return the Cache field")
	}
	c, _ := instrumentCoordinator(t, e)
	if err := c.RegisterGroup("a1", instrumentPipeline(t)); err != nil {
		t.Fatal(err)
	}
	cache.InvalidateGroup("job/pp")
	cache.InvalidateGroup("no-such-group")
	if st := cache.Stats(); st != (sched.CacheStats{Invalidations: 2}) {
		t.Fatalf("after two invalidations: %+v", st)
	}
	var nilCache *sched.PlanCache
	nilCache.InvalidateGroup("p")
}

// A coordinator resolves the handle through its scheduler and counts one
// invalidation per applied flow event and per removed group; an event that
// does not apply counts none. It exports no plan-cache metric.
func TestPlanCacheCountsCoordinatorInvalidations(t *testing.T) {
	cache := sched.NewPlanCache()
	ds := &countingDelta{DeltaEchelon: sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: cache})}
	c, reg := instrumentCoordinator(t, ds)
	if err := c.RegisterGroup("a1", instrumentPipeline(t)); err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	check := func(step string) {
		t.Helper()
		if st := cache.Stats(); st != (sched.CacheStats{Invalidations: want}) {
			t.Errorf("%s: stats %+v, want %d invalidations and nothing else", step, st, want)
		}
	}
	check("register")
	for _, ev := range []struct{ flow, event string }{
		{"f0", wire.EventReleased},
		{"f1", wire.EventReleased},
		{"f0", wire.EventFinished},
		{"f2", wire.EventReleased},
		{"f1", wire.EventFinished},
	} {
		if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: ev.flow, Event: ev.event}); err != nil {
			t.Fatal(err)
		}
		want++
		check(ev.flow + " " + ev.event)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f9", Event: wire.EventReleased}); err == nil {
		t.Fatal("an unknown flow applied")
	}
	check("unknown flow")
	if _, err := c.UnregisterGroup("job/pp"); err != nil {
		t.Fatal(err)
	}
	want++
	check("unregister")
	if ds.applies == 0 {
		t.Error("no flow event took the delta path")
	}
	for _, f := range reg.Snapshot() {
		if strings.HasPrefix(f.Name, "echelon_plan_cache_") {
			t.Errorf("coordinator exports %s", f.Name)
		}
	}
}
