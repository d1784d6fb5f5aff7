package sched

import (
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// equalRates compares allocations bitwise — the cache's contract is exact
// equivalence with the uncached scheduler, not approximate.
func equalRates(t *testing.T, got, want map[string]unit.Rate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rate map sizes differ: got %v, want %v", got, want)
	}
	for id, r := range want {
		if g, ok := got[id]; !ok || g != r {
			t.Fatalf("rate[%s] = %v, want exactly %v (full: got %v want %v)", id, got[id], r, got, want)
		}
	}
}

// An on-schedule group whose volumes track its solo plan is served from the
// cache at later events, with allocations identical to a fresh computation.
func TestPlanCacheHitOnSchedule(t *testing.T) {
	cache := NewPlanCache()
	cached := EchelonMADD{Cache: cache}
	fresh := EchelonMADD{}
	net := singleLinkNet(t)

	// Deadlines 2 and 4 (reference 2), sizes 2 each on a unit link: exactly
	// feasible at τ=0, so the group is on schedule.
	g := pipelineGroup(t, "p", 2, 2, 2)
	mkSnap := func(now unit.Time, rem0, rem1 unit.Bytes) *Snapshot {
		snap := buildSnapshot(t, now, map[string]*core.EchelonFlow{"p": g},
			map[string]unit.Bytes{"p-f0": rem0, "p-f1": rem1})
		snap.Groups["p"].Reference = 2
		return snap
	}

	r0, err := cached.Schedule(mkSnap(0, 2, 2), net)
	if err != nil {
		t.Fatal(err)
	}
	w0, err := fresh.Schedule(mkSnap(0, 2, 2), net)
	if err != nil {
		t.Fatal(err)
	}
	equalRates(t, r0, w0)
	if st := cache.Stats(); st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first call: %+v", st)
	}

	// One second later, volumes exactly on the solo pace (f0 transmitted at
	// the full unit link): the ranking must come from the cache.
	r1, err := cached.Schedule(mkSnap(1, 1, 2), net)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := fresh.Schedule(mkSnap(1, 1, 2), net)
	if err != nil {
		t.Fatal(err)
	}
	equalRates(t, r1, w1)
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("expected a cache hit, got %+v", st)
	}

	// Ahead of pace is also reusable: at t=1.5 the solo plan predicts
	// (0.5, 2) remaining; (0.25, 2) is strictly ahead.
	r2, err := cached.Schedule(mkSnap(1.5, 0.25, 2), net)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := fresh.Schedule(mkSnap(1.5, 0.25, 2), net)
	if err != nil {
		t.Fatal(err)
	}
	equalRates(t, r2, w2)
	if st := cache.Stats(); st.Hits != 2 {
		t.Fatalf("expected a second hit, got %+v", st)
	}
}

// A flow that falls behind its solo pace (stalled by contention or agent
// lag) must miss: the achievable tardiness may have changed.
func TestPlanCacheMissOnLag(t *testing.T) {
	cache := NewPlanCache()
	cached := EchelonMADD{Cache: cache}
	net := singleLinkNet(t)
	g := pipelineGroup(t, "p", 2, 2, 2)
	mk := func(now unit.Time, rem0 unit.Bytes) *Snapshot {
		snap := buildSnapshot(t, now, map[string]*core.EchelonFlow{"p": g},
			map[string]unit.Bytes{"p-f0": rem0, "p-f1": 2})
		snap.Groups["p"].Reference = 2
		return snap
	}
	if _, err := cached.Schedule(mk(0, 2), net); err != nil {
		t.Fatal(err)
	}
	// At t=1 the solo plan predicts 1 byte remaining; 1.5 is behind pace.
	r, err := cached.Schedule(mk(1, 1.5), net)
	if err != nil {
		t.Fatal(err)
	}
	w, err := EchelonMADD{}.Schedule(mk(1, 1.5), net)
	if err != nil {
		t.Fatal(err)
	}
	equalRates(t, r, w)
	if st := cache.Stats(); st.Hits != 0 {
		t.Fatalf("lagging flow must not hit: %+v", st)
	}
}

// Any fabric mutation retires every cached entry via the generation counter,
// even without an explicit invalidation call.
func TestPlanCacheCapacityChangeMisses(t *testing.T) {
	cache := NewPlanCache()
	cached := EchelonMADD{Cache: cache}
	net := singleLinkNet(t)
	g := pipelineGroup(t, "p", 2, 2, 2)
	mk := func(now unit.Time) *Snapshot {
		snap := buildSnapshot(t, now, map[string]*core.EchelonFlow{"p": g},
			map[string]unit.Bytes{"p-f0": 2, "p-f1": 2})
		snap.Groups["p"].Reference = 2
		return snap
	}
	if _, err := cached.Schedule(mk(0), net); err != nil {
		t.Fatal(err)
	}
	if err := net.SetCapacity("a", 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	r, err := cached.Schedule(mk(0), net)
	if err != nil {
		t.Fatal(err)
	}
	w, err := EchelonMADD{}.Schedule(mk(0), net)
	if err != nil {
		t.Fatal(err)
	}
	equalRates(t, r, w)
	if st := cache.Stats(); st.Hits != 0 {
		t.Fatalf("capacity change must invalidate: %+v", st)
	}
}

// Explicit invalidation hooks and the nil cache are both safe.
func TestPlanCacheInvalidation(t *testing.T) {
	cache := NewPlanCache()
	cached := EchelonMADD{Cache: cache}
	net := singleLinkNet(t)
	g := pipelineGroup(t, "p", 2, 2, 2)
	snap := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"p": g}, nil)
	snap.Groups["p"].Reference = 2
	if _, err := cached.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("expected one entry, got %+v", st)
	}
	cache.InvalidateGroup("no-such-group")
	if st := cache.Stats(); st.Entries != 1 || st.Invalidations != 0 {
		t.Fatalf("unknown-group invalidation changed state: %+v", st)
	}
	cache.InvalidateGroup("p")
	if st := cache.Stats(); st.Entries != 0 || st.Invalidations != 1 {
		t.Fatalf("after InvalidateGroup: %+v", st)
	}
	if _, err := cached.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	cache.InvalidateAll()
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("after InvalidateAll: %+v", st)
	}

	var nilCache *PlanCache
	nilCache.InvalidateGroup("p")
	nilCache.InvalidateAll()
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if _, ok := nilCache.lookup(snap, mustLinkTable(t, snap, net), &passGroup{id: "p"}); ok {
		t.Fatal("nil cache reported a hit")
	}
}

// Entries for departed groups are pruned so the cache stays bounded by the
// live group set.
func TestPlanCachePrunesDepartedGroups(t *testing.T) {
	cache := NewPlanCache()
	cached := EchelonMADD{Cache: cache}
	net := singleLinkNet(t)
	p := pipelineGroup(t, "p", 2, 2, 2)
	c := coflowGroup(t, "c", 1)
	both := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"p": p, "c": c}, nil)
	both.Groups["p"].Reference = 2
	if _, err := cached.Schedule(both, net); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 2 {
		t.Fatalf("expected two entries, got %+v", st)
	}
	only := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"p": p}, nil)
	only.Groups["p"].Reference = 2
	if _, err := cached.Schedule(only, net); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("departed group not pruned: %+v", st)
	}
}

// prune's binary search requires sorted ids; an unsorted caller used to
// evict live entries silently (SearchStrings misses on unsorted input).
// The guard must detect the violation and prune against a sorted copy.
func TestPlanCachePruneUnsortedIDs(t *testing.T) {
	cache := NewPlanCache()
	cache.entries["a"] = &planEntry{}
	cache.entries["b"] = &planEntry{}
	ids := []string{"b", "a"} // deliberately unsorted
	cache.prune(ids)
	if st := cache.Stats(); st.Entries != 2 {
		t.Fatalf("live entries evicted by unsorted prune: %+v", st)
	}
	if ids[0] != "b" || ids[1] != "a" {
		t.Fatalf("caller's slice reordered in place: %v", ids)
	}
	cache.prune([]string{"b"})
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("sorted prune broken: %+v", st)
	}
	if _, ok := cache.entries["b"]; !ok {
		t.Fatal("wrong entry pruned")
	}
}
