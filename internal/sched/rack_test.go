package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// rackHosts attaches a1, a2 to rack A and b1, b2 to rack B.
var rackHosts = [][2]string{{"a1", "A"}, {"a2", "A"}, {"b1", "B"}, {"b2", "B"}}

// rackNet builds 2 racks × 2 hosts with NIC 4 and uplink/downlink 2: leaves
// of a one-spine network.
func rackNet(t *testing.T) *fabric.Network {
	t.Helper()
	n := fabric.NewNetwork()
	for _, r := range []string{"A", "B"} {
		if err := n.AddLeaf(r, 2, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range rackHosts {
		if err := n.AddHost(h[0], h[1], 4, 4); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// EchelonMADD must respect uplink capacity: a cross-rack coflow's pace is
// set by the uplink, not the NICs.
func TestEchelonMADDRackBottleneck(t *testing.T) {
	net := rackNet(t)
	g, err := core.NewCoflow("c",
		&core.Flow{ID: "x", Src: "a1", Dst: "b1", Size: 4},
		&core.Flow{ID: "y", Src: "a2", Dst: "b2", Size: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Now: 0, Groups: map[string]*GroupState{"c": {Group: g}}}
	for _, f := range g.Flows {
		snap.Flows = append(snap.Flows, &FlowState{Flow: f, GroupID: "c", Remaining: f.Size})
	}
	rates, err := (EchelonMADD{}).Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	// Uplink A carries 8 bytes at 2 B/s: Γ = 4, MADD rates 1 each.
	if math.Abs(float64(rates["x"])-1) > 1e-6 || math.Abs(float64(rates["y"])-1) > 1e-6 {
		t.Errorf("rates = %v, want 1 each (uplink-paced)", rates)
	}
	if err := net.Feasible(requestsOf(snap.Flows), rates); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

// Intra-rack flows must not be throttled by the uplink that cross-rack
// flows saturate.
func TestEchelonMADDIntraRackUnaffected(t *testing.T) {
	net := rackNet(t)
	cross, _ := core.NewCoflow("cross", &core.Flow{ID: "x", Src: "a1", Dst: "b1", Size: 100})
	intra, _ := core.NewCoflow("intra", &core.Flow{ID: "z", Src: "a2", Dst: "a1", Size: 1})
	snap := &Snapshot{Now: 0, Groups: map[string]*GroupState{
		"cross": {Group: cross}, "intra": {Group: intra},
	}}
	snap.Flows = []*FlowState{
		{Flow: cross.Flows[0], GroupID: "cross", Remaining: 100},
		{Flow: intra.Flows[0], GroupID: "intra", Remaining: 1},
	}
	rates, err := (EchelonMADD{Backfill: true}).Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	if rates["z"] <= 0 {
		t.Errorf("intra-rack flow starved: %v", rates)
	}
	if rates["x"] > 2+1e-6 {
		t.Errorf("cross-rack flow exceeds uplink: %v", rates["x"])
	}
	if err := net.Feasible(requestsOf(snap.Flows), rates); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

// Property: every scheduler stays feasible on random two-rack scenarios.
func TestSchedulersRackFeasibleProperty(t *testing.T) {
	schedulers := allSchedulers()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := fabric.NewNetwork()
		hosts := []string{"a1", "a2", "b1", "b2"}
		nic := unit.Rate(1 + 3*rng.Float64())
		_ = net.AddLeaf("A", unit.Rate(0.5+rng.Float64()), unit.Rate(0.5+rng.Float64()))
		_ = net.AddLeaf("B", unit.Rate(0.5+rng.Float64()), unit.Rate(0.5+rng.Float64()))
		for _, h := range rackHosts {
			_ = net.AddHost(h[0], h[1], nic, nic)
		}
		snap := &Snapshot{Now: 0, Groups: map[string]*GroupState{}}
		groupCount := 1 + rng.Intn(3)
		for gi := 0; gi < groupCount; gi++ {
			gid := fmt.Sprintf("g%d", gi)
			var flows []*core.Flow
			for fi := 0; fi < 1+rng.Intn(4); fi++ {
				s := rng.Intn(4)
				d := rng.Intn(4)
				if s == d {
					d = (d + 1) % 4
				}
				flows = append(flows, &core.Flow{
					ID:  fmt.Sprintf("%sf%d", gid, fi),
					Src: hosts[s], Dst: hosts[d],
					Size: unit.Bytes(0.5 + 3*rng.Float64()), Stage: fi,
				})
			}
			g, err := core.New(gid, core.Pipeline{T: unit.Time(rng.Float64())}, flows...)
			if err != nil {
				return false
			}
			snap.Groups[gid] = &GroupState{Group: g}
			for _, fl := range flows {
				snap.Flows = append(snap.Flows, &FlowState{Flow: fl, GroupID: gid, Remaining: fl.Size})
			}
		}
		reqs := requestsOf(snap.Flows)
		for _, s := range schedulers {
			rates, err := s.Schedule(snap, net)
			if err != nil {
				t.Logf("seed %d: %s: %v", seed, s.Name(), err)
				return false
			}
			if err := net.Feasible(reqs, rates); err != nil {
				t.Logf("seed %d: %s infeasible: %v", seed, s.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// MoveHost must invalidate every cached planning artifact: the pooled path
// tables (keyed on Generation) and the delta scheduler's incremental state.
// A stale footprint after a host move would patch against the wrong uplinks.
func TestMoveHostDiscardsCachedState(t *testing.T) {
	net := rackNet(t)
	d := NewDelta(EchelonMADD{Backfill: true})

	g, err := core.NewCoflow("c",
		&core.Flow{ID: "x", Src: "a1", Dst: "b1", Size: 100},
		&core.Flow{ID: "y", Src: "a2", Dst: "b2", Size: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Now: 0, Groups: map[string]*GroupState{"c": {Group: g}}}
	for _, f := range g.Flows {
		snap.Flows = append(snap.Flows, &FlowState{Flow: f, GroupID: "c", Remaining: f.Size})
	}

	before, err := d.Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Apply(snap, net, Delta{}); !ok {
		t.Fatalf("warm delta state rejected a no-op event: %+v", d.LastOutcome())
	}

	// Move b1 into rack A: x becomes intra-rack, so its uplink ceiling (2)
	// no longer applies.
	if err := net.MoveHost("b1", "A"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Apply(snap, net, Delta{}); ok {
		t.Fatal("delta patch applied across a rack move")
	}
	if got := d.LastOutcome().Reason; got != "fabric-generation" {
		t.Errorf("fallback reason = %q, want fabric-generation", got)
	}

	after, err := d.Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := (EchelonMADD{Backfill: true}).Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range cold {
		if after[id] != r {
			t.Errorf("post-move rate for %s = %v, cold scheduler says %v (stale cache?)", id, after[id], r)
		}
	}
	if after["x"] == before["x"] {
		t.Errorf("rate for x unchanged (%v) by the rack move; topology change not observed", after["x"])
	}
}

// residualGamma must agree across fabric layouts when the interior links
// cannot bind: a leafless big switch and a leaf-spine with non-binding
// uplinks describe the same capacity region, so SEBF ordering (and with it
// every CoflowMADD decision) is backend-independent.
func TestResidualGammaBackendAgreement(t *testing.T) {
	hosts := []string{"a1", "a2", "b1", "b2"}
	big := fabric.NewNetwork()
	big.AddUniformHosts(4, hosts...)

	ls, err := fabric.NewLeafSpine(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if err := ls.AddLeaf("L-"+h, 1e300, 1e300); err != nil {
			t.Fatal(err)
		}
		if err := ls.AddHost(h, "L-"+h, 4, 4); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var flows []*FlowState
		for fi := 0; fi < 1+rng.Intn(5); fi++ {
			s, d := rng.Intn(4), rng.Intn(4)
			if s == d {
				d = (d + 1) % 4
			}
			flows = append(flows, &FlowState{
				Flow:      &core.Flow{ID: fmt.Sprintf("f%d", fi), Src: hosts[s], Dst: hosts[d]},
				Remaining: unit.Bytes(0.5 + 5*rng.Float64()),
			})
		}
		gBig := residualGamma(flows, big.NewResidual(), big)
		gLeaf := residualGamma(flows, ls.NewResidual(), ls)
		if gBig != gLeaf {
			t.Fatalf("trial %d: residualGamma %v (bigswitch) vs %v (leafspine)", trial, gBig, gLeaf)
		}
		tBig, err1 := big.BottleneckTime(volumesOf(flows))
		tLeaf, err2 := ls.BottleneckTime(volumesOf(flows))
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: bottleneck errors %v / %v", trial, err1, err2)
		}
		if tBig != tLeaf {
			t.Fatalf("trial %d: BottleneckTime %v vs %v", trial, tBig, tLeaf)
		}
	}
}
