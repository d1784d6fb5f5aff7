package sched

import (
	"sync"
	"time"

	"echelonflow/internal/fabric"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
)

// Instrumented wraps a Scheduler with telemetry: a latency histogram and
// call/error counters per Schedule invocation, plus PlanCache hit/miss/
// invalidation counters when the wrapped scheduler exposes a cache. Create
// with Instrument.
type Instrumented struct {
	inner Scheduler
	lat   *telemetry.Histogram
	calls *telemetry.Counter
	errs  *telemetry.Counter

	// Cache counters export deltas of the PlanCache's cumulative stats,
	// sampled after each Schedule and Apply call under mu.
	hits, misses, invals *telemetry.Counter
	mu                   sync.Mutex
	last                 CacheStats
}

// Instrument wraps s with telemetry recorded into reg. A nil registry
// returns s unchanged, so the unconfigured path has zero overhead — the
// acceptance bar for BenchmarkSchedule_* staying within noise of
// BENCH_sched.json. The latency histogram family is registered eagerly so
// /metrics exposes it before the first scheduling decision.
func Instrument(s Scheduler, reg *telemetry.Registry) Scheduler {
	if reg == nil || s == nil {
		return s
	}
	name := s.Name()
	in := &Instrumented{
		inner: s,
		lat: reg.Histogram("echelon_schedule_seconds",
			"Latency of Scheduler.Schedule calls.", "scheduler", name),
		calls: reg.Counter("echelon_schedule_calls_total",
			"Total Scheduler.Schedule invocations.", "scheduler", name),
		errs: reg.Counter("echelon_schedule_errors_total",
			"Schedule invocations that returned an error.", "scheduler", name),
	}
	if in.PlanCache() != nil {
		in.hits = reg.Counter("echelon_plan_cache_hits_total",
			"PlanCache lookups reusing a memoized solo ranking.", "scheduler", name)
		in.misses = reg.Counter("echelon_plan_cache_misses_total",
			"PlanCache lookups that fell through to a planning pass.", "scheduler", name)
		in.invals = reg.Counter("echelon_plan_cache_invalidations_total",
			"PlanCache entries dropped by lifecycle invalidation.", "scheduler", name)
	}
	if ds, ok := s.(DeltaScheduler); ok {
		// Keep the incremental API reachable through the wrapper, but only
		// when the wrapped scheduler actually implements it — a plain
		// Instrumented must not satisfy DeltaScheduler by accident.
		return &InstrumentedDelta{Instrumented: in, delta: ds}
	}
	return in
}

// InstrumentedDelta is an Instrumented whose wrapped scheduler also
// implements DeltaScheduler; it forwards Apply and Prime, timing Apply with
// the same latency histogram as Schedule.
type InstrumentedDelta struct {
	*Instrumented
	delta DeltaScheduler
}

// Apply implements DeltaScheduler.
func (i *InstrumentedDelta) Apply(snap *Snapshot, net fabric.Fabric, d Delta) (map[string]unit.Rate, bool, error) {
	t0 := time.Now()
	rates, ok, err := i.delta.Apply(snap, net, d)
	i.lat.Observe(time.Since(t0).Seconds())
	i.sampleCache()
	return rates, ok, err
}

// Prime implements DeltaScheduler.
func (i *InstrumentedDelta) Prime(snap *Snapshot, net fabric.Fabric, rates map[string]unit.Rate) {
	i.delta.Prime(snap, net, rates)
}

// Name implements Scheduler.
func (i *Instrumented) Name() string { return i.inner.Name() }

// PlanCache forwards the wrapped scheduler's cache so the coordinator's and
// simulator's eager invalidation hooks keep working through the wrapper.
func (i *Instrumented) PlanCache() *PlanCache {
	if pc, ok := i.inner.(interface{ PlanCache() *PlanCache }); ok {
		return pc.PlanCache()
	}
	return nil
}

// Schedule implements Scheduler, timing the wrapped call.
func (i *Instrumented) Schedule(snap *Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	t0 := time.Now()
	rates, err := i.inner.Schedule(snap, net)
	i.lat.Observe(time.Since(t0).Seconds())
	i.calls.Inc()
	if err != nil {
		i.errs.Inc()
	}
	i.sampleCache()
	return rates, err
}

// sampleCache exports the plan cache's counter growth since the last
// sample. Stats is read under mu, so every sample is at least as new as the
// one before it and no difference wraps.
func (i *Instrumented) sampleCache() {
	if i.hits == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	st := i.PlanCache().Stats()
	i.hits.Add(st.Hits - i.last.Hits)
	i.misses.Add(st.Misses - i.last.Misses)
	i.invals.Add(st.Invalidations - i.last.Invalidations)
	i.last = st
}
