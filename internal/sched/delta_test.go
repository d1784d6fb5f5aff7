package sched

import (
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// pairGroup builds a pipeline group whose flows all run src→dst.
func pairGroup(t *testing.T, id, src, dst string, T unit.Time, sizes ...unit.Bytes) *core.EchelonFlow {
	t.Helper()
	flows := make([]*core.Flow, len(sizes))
	for i, s := range sizes {
		flows[i] = &core.Flow{ID: id + "-f" + string(rune('0'+i)), Src: src, Dst: dst, Size: s, Stage: i}
	}
	g, err := core.New(id, core.Pipeline{T: T}, flows...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// orderedSnapshot builds a snapshot with deterministic flow order (groups in
// the given order), so full-vs-delta comparisons see identical float
// accumulation order.
func orderedSnapshot(t *testing.T, now unit.Time, groups []*core.EchelonFlow, remaining map[string]unit.Bytes) *Snapshot {
	t.Helper()
	snap := &Snapshot{Now: now, Groups: make(map[string]*GroupState)}
	for _, g := range groups {
		snap.Groups[g.ID] = &GroupState{Group: g}
		for _, f := range g.Flows {
			rem, ok := remaining[f.ID]
			if !ok {
				rem = f.Size
			}
			if rem <= 0 {
				continue
			}
			snap.Flows = append(snap.Flows, &FlowState{Flow: f, GroupID: g.ID, Remaining: rem})
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	return snap
}

func sameRates(t *testing.T, got, want map[string]unit.Rate, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rates, want %d", context, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: flow %q missing", context, id)
		}
		if g != w {
			t.Errorf("%s: flow %q rate = %v, want %v (bit-equal)", context, id, g, w)
		}
	}
}

// A flow event on a group whose ports are disjoint from every other group
// must patch only that group, and the patch (plus held rates, at a zero-dt
// event) must be bit-equal to a cold full Schedule of the same snapshot.
func TestDeltaApplyDisjointGroupsBitEqual(t *testing.T) {
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b", "c", "d")
	g1 := pairGroup(t, "g1", "a", "b", 2, 2, 2)
	g2 := pairGroup(t, "g2", "c", "d", 3, 1, 4)
	groups := []*core.EchelonFlow{g1, g2}

	d := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	snap1 := orderedSnapshot(t, 0, groups, nil)
	if _, err := d.Schedule(snap1, net); err != nil {
		t.Fatal(err)
	}

	// g1-f0 finishes at the same instant.
	snap2 := orderedSnapshot(t, 0, groups, map[string]unit.Bytes{"g1-f0": 0})
	patch, ok, err := d.Apply(snap2, net, Delta{Groups: []string{"g1"}})
	if err != nil || !ok {
		t.Fatalf("Apply = ok %v err %v (outcome %+v)", ok, err, d.LastOutcome())
	}
	out := d.LastOutcome()
	if !out.Applied || len(out.Replanned) != 1 || out.Replanned[0] != "g1" {
		t.Errorf("outcome = %+v, want replanned [g1]", out)
	}
	if out.Held != 2 {
		t.Errorf("held = %d, want 2 (g2's flows)", out.Held)
	}

	full, err := EchelonMADD{Backfill: true, Cache: NewPlanCache()}.Schedule(snap2, net)
	if err != nil {
		t.Fatal(err)
	}
	sameRates(t, patch, full, "delta patch vs cold full")
}

// Groups sharing a directional port with the changed group must be swept
// into the replanned component; groups outside it are held.
func TestDeltaApplySharedPortComponent(t *testing.T) {
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b", "c", "d", "e")
	g1 := pairGroup(t, "g1", "a", "b", 2, 2, 2)
	g2 := pairGroup(t, "g2", "a", "c", 3, 1, 4) // shares egress(a) with g1
	g3 := pairGroup(t, "g3", "d", "e", 2, 3)
	groups := []*core.EchelonFlow{g1, g2, g3}

	d := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	if _, err := d.Schedule(orderedSnapshot(t, 0, groups, nil), net); err != nil {
		t.Fatal(err)
	}
	snap2 := orderedSnapshot(t, 0, groups, map[string]unit.Bytes{"g1-f0": 0})
	patch, ok, err := d.Apply(snap2, net, Delta{Groups: []string{"g1"}})
	if err != nil || !ok {
		t.Fatalf("Apply = ok %v err %v (outcome %+v)", ok, err, d.LastOutcome())
	}
	out := d.LastOutcome()
	if len(out.Replanned) != 2 || out.Replanned[0] != "g1" || out.Replanned[1] != "g2" {
		t.Errorf("replanned = %v, want [g1 g2]", out.Replanned)
	}
	full, err := EchelonMADD{Backfill: true, Cache: NewPlanCache()}.Schedule(snap2, net)
	if err != nil {
		t.Fatal(err)
	}
	sameRates(t, patch, full, "component patch vs cold full")
}

// A group finishing entirely yields a pure hold patch for the others.
func TestDeltaApplyGroupVanishes(t *testing.T) {
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b", "c", "d")
	g1 := pairGroup(t, "g1", "a", "b", 2, 2)
	g2 := pairGroup(t, "g2", "c", "d", 3, 1, 4)
	groups := []*core.EchelonFlow{g1, g2}

	d := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	r1, err := d.Schedule(orderedSnapshot(t, 0, groups, nil), net)
	if err != nil {
		t.Fatal(err)
	}
	snap2 := orderedSnapshot(t, 0, groups, map[string]unit.Bytes{"g1-f0": 0})
	patch, ok, err := d.Apply(snap2, net, Delta{Groups: []string{"g1"}})
	if err != nil || !ok {
		t.Fatalf("Apply = ok %v err %v (outcome %+v)", ok, err, d.LastOutcome())
	}
	for _, fs := range snap2.Flows {
		if patch[fs.Flow.ID] != r1[fs.Flow.ID] {
			t.Errorf("flow %q = %v, want held %v", fs.Flow.ID, patch[fs.Flow.ID], r1[fs.Flow.ID])
		}
	}
}

// Every documented fallback invariant must refuse the patch.
func TestDeltaApplyFallbacks(t *testing.T) {
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b", "c", "d")
	g1 := pairGroup(t, "g1", "a", "b", 2, 2, 2)
	g2 := pairGroup(t, "g2", "c", "d", 3, 1, 4)
	groups := []*core.EchelonFlow{g1, g2}
	snap := orderedSnapshot(t, 0, groups, nil)

	// Cold state.
	d := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	if _, ok, _ := d.Apply(snap, net, Delta{Groups: []string{"g1"}}); ok {
		t.Fatal("cold Apply succeeded")
	}
	if r := d.LastOutcome().Reason; r != "cold-state" {
		t.Errorf("reason = %q, want cold-state", r)
	}

	if _, err := d.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}

	// Undeclared drift: g2 lost a flow but only g1 is declared.
	drift := orderedSnapshot(t, 0, groups, map[string]unit.Bytes{"g2-f0": 0})
	if _, ok, _ := d.Apply(drift, net, Delta{Groups: []string{"g1"}}); ok {
		t.Fatal("undeclared drift accepted")
	}
	if r := d.LastOutcome().Reason; r != "undeclared-drift" {
		t.Errorf("reason = %q, want undeclared-drift", r)
	}

	// Fabric generation bump (the capacity-change invariant).
	if err := net.SetCapacity("a", 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Apply(snap, net, Delta{Groups: []string{"g1"}}); ok {
		t.Fatal("Apply after SetCapacity succeeded")
	}
	if r := d.LastOutcome().Reason; r != "fabric-generation" {
		t.Errorf("reason = %q, want fabric-generation", r)
	}

	// GlobalEDF has no port-local component.
	ge := NewDelta(EchelonMADD{GlobalEDF: true, Cache: NewPlanCache()})
	if _, err := ge.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ge.Apply(snap, net, Delta{Groups: []string{"g1"}}); ok {
		t.Fatal("GlobalEDF Apply succeeded")
	}
	if r := ge.LastOutcome().Reason; r != "global-edf" {
		t.Errorf("reason = %q, want global-edf", r)
	}

	// Component spanning every group falls back to the pooled full pass.
	shared := []*core.EchelonFlow{
		pairGroup(t, "s1", "a", "b", 2, 2),
		pairGroup(t, "s2", "a", "c", 2, 2), // shares egress(a)
	}
	ds := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	sn := orderedSnapshot(t, 0, shared, nil)
	if _, err := ds.Schedule(sn, net); err != nil {
		t.Fatal(err)
	}
	sn2 := orderedSnapshot(t, 0, shared, map[string]unit.Bytes{"s1-f0": 1})
	if _, ok, _ := ds.Apply(sn2, net, Delta{Groups: []string{"s1"}}); ok {
		t.Fatal("all-spanning component applied")
	}
	if r := ds.LastOutcome().Reason; r != "component-spans-all" {
		t.Errorf("reason = %q, want component-spans-all", r)
	}
}

// Prime must reconstruct state equivalent to having run Schedule: a primed
// wrapper and a scheduled wrapper make identical Apply decisions.
func TestDeltaPrimeMatchesSchedule(t *testing.T) {
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b", "c", "d")
	g1 := pairGroup(t, "g1", "a", "b", 2, 2, 2)
	g2 := pairGroup(t, "g2", "c", "d", 3, 1, 4)
	groups := []*core.EchelonFlow{g1, g2}

	live := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	snap1 := orderedSnapshot(t, 0, groups, nil)
	r1, err := live.Schedule(snap1, net)
	if err != nil {
		t.Fatal(err)
	}

	restored := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	restored.Prime(orderedSnapshot(t, 0, groups, nil), net, r1)

	snap2 := orderedSnapshot(t, 0, groups, map[string]unit.Bytes{"g1-f0": 0})
	pl, okL, errL := live.Apply(snap2, net, Delta{Groups: []string{"g1"}})
	pr, okR, errR := restored.Apply(orderedSnapshot(t, 0, groups, map[string]unit.Bytes{"g1-f0": 0}), net, Delta{Groups: []string{"g1"}})
	if errL != nil || errR != nil || !okL || !okR {
		t.Fatalf("Apply: live ok %v err %v, restored ok %v err %v", okL, errL, okR, errR)
	}
	sameRates(t, pr, pl, "primed vs live patch")
}

// Rack ports are part of a group's footprint: two groups on disjoint host
// pairs but sharing a rack uplink must land in one component.
func TestDeltaApplyRackComponent(t *testing.T) {
	net := fabric.NewNetwork()
	if err := net.AddLeaf("r1", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLeaf("r2", 10, 10); err != nil {
		t.Fatal(err)
	}
	for _, h := range [][2]string{{"a", "r1"}, {"b", "r2"}, {"c", "r1"}, {"d", "r2"}} {
		if err := net.AddHost(h[0], h[1], 10, 10); err != nil {
			t.Fatal(err)
		}
	}
	g1 := pairGroup(t, "g1", "a", "b", 2, 2, 2) // r1 uplink
	g2 := pairGroup(t, "g2", "c", "d", 3, 1, 4) // r1 uplink too
	groups := []*core.EchelonFlow{g1, g2}

	d := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	if _, err := d.Schedule(orderedSnapshot(t, 0, groups, nil), net); err != nil {
		t.Fatal(err)
	}
	snap2 := orderedSnapshot(t, 0, groups, map[string]unit.Bytes{"g1-f0": 0})
	// Both groups share rack r1's uplink: component spans all → fallback.
	if _, ok, _ := d.Apply(snap2, net, Delta{Groups: []string{"g1"}}); ok {
		t.Fatal("rack-coupled component applied as a partial patch")
	}
	if r := d.LastOutcome().Reason; r != "component-spans-all" {
		t.Errorf("reason = %q, want component-spans-all", r)
	}
}
