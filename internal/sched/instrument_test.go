package sched

import (
	"fmt"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
)

// stubScheduler counts calls and optionally errors.
type stubScheduler struct {
	calls int
	fail  bool
}

func (s *stubScheduler) Name() string { return "stub" }

func (s *stubScheduler) Schedule(snap *Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	s.calls++
	if s.fail {
		return nil, fmt.Errorf("stub failure")
	}
	return zeroFill(snap), nil
}

func TestInstrumentNilRegistryIsIdentity(t *testing.T) {
	s := &stubScheduler{}
	if got := Instrument(s, nil); got != Scheduler(s) {
		t.Error("nil registry should return the scheduler unchanged")
	}
	if got := Instrument(nil, telemetry.NewRegistry()); got != nil {
		t.Error("nil scheduler should pass through")
	}
}

func instrumentSnapshot(t *testing.T) (*Snapshot, *fabric.Network) {
	t.Helper()
	g, err := core.New("g", core.Coflow{}, &core.Flow{ID: "f", Src: "a", Dst: "b", Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	net := fabric.NewNetwork()
	net.AddUniformHosts(100, "a", "b")
	snap := &Snapshot{
		Now:    1,
		Groups: map[string]*GroupState{"g": {Group: g}},
		Flows:  []*FlowState{{Flow: g.Flows[0], GroupID: "g", Remaining: 100, Release: 0}},
	}
	return snap, net
}

func TestInstrumentCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	stub := &stubScheduler{}
	in := Instrument(stub, reg)
	if in.Name() != "stub" {
		t.Errorf("name = %q", in.Name())
	}
	snap, net := instrumentSnapshot(t)
	if _, err := in.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	stub.fail = true
	if _, err := in.Schedule(snap, net); err == nil {
		t.Fatal("expected forwarded error")
	}
	if got := reg.Counter("echelon_schedule_calls_total", "", "scheduler", "stub").Value(); got != 2 {
		t.Errorf("calls = %d, want 2", got)
	}
	if got := reg.Counter("echelon_schedule_errors_total", "", "scheduler", "stub").Value(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if got := reg.Histogram("echelon_schedule_seconds", "", "scheduler", "stub").Count(); got != 2 {
		t.Errorf("latency observations = %d, want 2", got)
	}
}

func TestInstrumentForwardsPlanCache(t *testing.T) {
	cache := NewPlanCache()
	inner := EchelonMADD{Backfill: true, Cache: cache}
	reg := telemetry.NewRegistry()
	in := Instrument(inner, reg)
	pc, ok := in.(interface{ PlanCache() *PlanCache })
	if !ok || pc.PlanCache() != cache {
		t.Fatal("wrapper does not forward the inner scheduler's PlanCache")
	}
	// Two identical schedules: first misses, second hits; the counters
	// export the deltas of the cache's cumulative stats.
	snap, net := instrumentSnapshot(t)
	for i := 0; i < 2; i++ {
		if _, err := in.Schedule(snap, net); err != nil {
			t.Fatal(err)
		}
	}
	hits := reg.Counter("echelon_plan_cache_hits_total", "", "scheduler", inner.Name()).Value()
	misses := reg.Counter("echelon_plan_cache_misses_total", "", "scheduler", inner.Name()).Value()
	st := cache.Stats()
	if hits != st.Hits || misses != st.Misses {
		t.Errorf("exported hits/misses = %d/%d, cache stats = %d/%d", hits, misses, st.Hits, st.Misses)
	}
	if hits == 0 {
		t.Error("second identical schedule should have hit the plan cache")
	}
}

// Plan-cache lookups on the delta path reach the exported counters when
// Apply returns, not at the next full Schedule.
func TestInstrumentedDeltaExportsCacheStats(t *testing.T) {
	cache := NewPlanCache()
	inner := EchelonMADD{Backfill: true, Cache: cache}
	reg := telemetry.NewRegistry()
	ds, ok := Instrument(NewDelta(inner), reg).(DeltaScheduler)
	if !ok {
		t.Fatal("instrumented delta scheduler lost its Apply")
	}
	snap, net := instrumentSnapshot(t)
	if _, err := ds.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := ds.Apply(snap, net, Delta{Groups: []string{"g"}}); err != nil || !ok {
			t.Fatalf("Apply %d: ok=%v err=%v", i, ok, err)
		}
	}
	name := ds.Name()
	hits := reg.Counter("echelon_plan_cache_hits_total", "", "scheduler", name).Value()
	misses := reg.Counter("echelon_plan_cache_misses_total", "", "scheduler", name).Value()
	st := cache.Stats()
	if hits != st.Hits || misses != st.Misses {
		t.Errorf("exported hits/misses = %d/%d, cache stats = %d/%d", hits, misses, st.Hits, st.Misses)
	}
	if st.Hits < 5 {
		t.Errorf("cache stats %+v: want a hit per Apply", st)
	}
}
