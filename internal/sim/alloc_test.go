package sim_test

import (
	"testing"

	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// fixedRates is a Scheduler that hands every flow the same preallocated
// rate map, so a run's allocations are the simulator's own.
type fixedRates map[string]unit.Rate

func (fixedRates) Name() string { return "fixed" }

func (r fixedRates) Schedule(*sched.Snapshot, fabric.Fabric) (map[string]unit.Rate, error) {
	return r, nil
}

// maxRunAllocs bounds the allocations of New+Run on the paradigm mix (1314
// nodes, 426 scheduler calls): New's setup, then none per instant. The
// string-keyed event loop this replaced made 14 767.
const maxRunAllocs = 1500

// TestRunAllocs holds the simulator's allocations to a per-node setup cost:
// the event loop itself must not allocate per instant.
func TestRunAllocs(t *testing.T) {
	w := paradigmMix(t)
	rates := fixedRates{}
	for _, n := range w.Graph.Nodes() {
		if n.Kind == dag.Comm {
			rates[n.ID] = 1
		}
	}
	net := mixFabric(t, mixFabrics[0])
	calls := 0
	allocs := testing.AllocsPerRun(3, func() {
		s, err := sim.New(sim.Options{Graph: w.Graph, Net: net, Scheduler: rates, Arrangements: w.Arrangements})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		calls = res.SchedulerCalls
	})
	t.Logf("%.0f allocations per New+Run over %d nodes and %d scheduler calls", allocs, w.Graph.Len(), calls)
	if allocs > maxRunAllocs {
		t.Errorf("New+Run allocates %.0f times, bound %d", allocs, maxRunAllocs)
	}
}

// BenchmarkSim_Mix runs the paradigm mix under EchelonMADD with a fresh plan
// cache per run, as the sim-mix benchmark workload does, on both fabrics.
func BenchmarkSim_Mix(b *testing.B) {
	w := paradigmMix(b)
	for _, spec := range mixFabrics {
		net := mixFabric(b, spec)
		b.Run(shortName(spec), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := sim.New(sim.Options{Graph: w.Graph, Net: net, Arrangements: w.Arrangements,
					Scheduler: sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanCacheDecisionsPinned runs BenchmarkSim_Mix's workload with a fresh
// plan cache on each fabric and pins the cache's counters: every hit, miss
// and invalidation decision must stay what it is.
func TestPlanCacheDecisionsPinned(t *testing.T) {
	want := map[string]sched.CacheStats{
		"bigswitch": {Hits: 153, Misses: 4258, Invalidations: 585},
		"leafspine": {Hits: 5, Misses: 4029, Invalidations: 438},
	}
	w := paradigmMix(t)
	for _, spec := range mixFabrics {
		cache := sched.NewPlanCache()
		s, err := sim.New(sim.Options{Graph: w.Graph, Net: mixFabric(t, spec), Arrangements: w.Arrangements,
			Scheduler: sched.EchelonMADD{Backfill: true, Cache: cache}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		got := cache.Stats()
		got.Entries = 0
		if got != want[shortName(spec)] {
			t.Errorf("%s: cache stats %+v, want %+v", shortName(spec), got, want[shortName(spec)])
		}
	}
}
