package sched

import (
	"math"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// mustLinkTable builds a link table over every flow of snap.
func mustLinkTable(t *testing.T, snap *Snapshot, net fabric.Fabric) *linkTable {
	t.Helper()
	lt, err := acquireLinkTable(snap, net, snap.Flows)
	if err != nil {
		t.Fatal(err)
	}
	return lt
}

func TestClassesOf(t *testing.T) {
	g := pipelineGroup(t, "p", 2, 1, 1, 1)
	snap := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"p": g}, nil)
	classes := mustLinkTable(t, snap, singleLinkNet(t)).groups()[0].classes
	if len(classes) != 3 {
		t.Fatalf("pipeline classes = %d, want 3", len(classes))
	}
	for i, c := range classes {
		if !c.deadline.ApproxEq(unit.Time(2 * i)) {
			t.Errorf("class %d deadline = %v", i, c.deadline)
		}
	}

	cg := coflowGroup(t, "c", 1, 2, 3)
	snapC := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"c": cg}, nil)
	classesC := mustLinkTable(t, snapC, singleLinkNet(t)).groups()[0].classes
	if len(classesC) != 1 || len(classesC[0].flows) != 3 {
		t.Errorf("coflow classes = %+v", classesC)
	}
}

// On a Coflow group, EchelonMADD must collapse to classic MADD: rates
// proportional to remaining volume, simultaneous finish (Property 2).
func TestEchelonMADDOnCoflowEqualsMADD(t *testing.T) {
	g := coflowGroup(t, "g", 1, 3)
	snap := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"g": g}, nil)
	rates, err := EchelonMADD{}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rates["g-f0"])-0.25) > 1e-6 || math.Abs(float64(rates["g-f1"])-0.75) > 1e-6 {
		t.Errorf("rates = %v, want MADD's 0.25/0.75", rates)
	}
}

// A feasible staggered pipeline gets zero tardiness: the head flow uses the
// full link now, later flows wait their turn.
func TestEchelonMADDStaggeredPipeline(t *testing.T) {
	// Deadlines 2, 4, 6 with sizes 2 each on a unit link: exactly feasible
	// at τ=0 by transmitting back-to-back.
	g := pipelineGroup(t, "p", 2, 2, 2, 2)
	snap := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"p": g}, nil)
	// Shift deadlines so flow 0's deadline is 2: reference = 2 means
	// deadlines 2, 4, 6.
	snap.Groups["p"].Reference = 2
	rates, err := EchelonMADD{}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rates["p-f0"])-1) > 1e-6 {
		t.Errorf("head rate = %v, want 1", rates["p-f0"])
	}
	if rates["p-f1"] > 1e-6 || rates["p-f2"] > 1e-6 {
		t.Errorf("later flows should idle now: %v", rates)
	}
}

// The Fig. 6 catch-up behaviour: a delayed later flow (deadline already
// passed) forces positive tardiness, and the scheduler lets the group catch
// up by planning every member against deadline+τ.
func TestEchelonMADDCatchUp(t *testing.T) {
	g := pipelineGroup(t, "p", 1, 1, 1)
	snap := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"p": g}, nil)
	// now = 0 but reference = -5: deadlines -5 and -4 are long past. The
	// group's minimal tardiness is driven by shipping 2 bytes at rate 1:
	// head finishes at 1 (tardiness 6), second at 2 (tardiness 6).
	snap.Groups["p"].Reference = -5
	rates, err := EchelonMADD{}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	// Head (earlier deadline) gets the link first.
	if math.Abs(float64(rates["p-f0"])-1) > 1e-6 {
		t.Errorf("head rate = %v, want 1 (catch up at full speed)", rates["p-f0"])
	}
}

// AchievedTardiness floors the group's target: a group that already missed
// by 3 plans the rest against deadline+3, using minimal rates.
func TestEchelonMADDAchievedTardinessFloor(t *testing.T) {
	g := pipelineGroup(t, "p", 10, 4, 4)
	// Only the second flow remains (stage 1, deadline 10).
	snap := &Snapshot{
		Now: 0,
		Groups: map[string]*GroupState{
			"p": {Group: g, Reference: 0, AchievedTardiness: 3},
		},
	}
	snap.Flows = []*FlowState{{Flow: g.Flows[1], GroupID: "p", Remaining: 4}}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	rates, err := EchelonMADD{}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	// Minimal rate to finish 4 bytes by deadline 10+3=13: 4/13.
	want := 4.0 / 13.0
	if math.Abs(float64(rates["p-f1"])-want) > 1e-6 {
		t.Errorf("rate = %v, want %v (minimal against floored target)", rates["p-f1"], want)
	}
}

// Without the floor, the same flow would be paced to finish exactly at its
// deadline.
func TestEchelonMADDMinimalRates(t *testing.T) {
	g := pipelineGroup(t, "p", 10, 4, 4)
	snap := &Snapshot{
		Now:    0,
		Groups: map[string]*GroupState{"p": {Group: g, Reference: 0}},
	}
	snap.Flows = []*FlowState{{Flow: g.Flows[1], GroupID: "p", Remaining: 4}}
	rates, err := EchelonMADD{}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	want := 4.0 / 10.0
	if math.Abs(float64(rates["p-f1"])-want) > 1e-6 {
		t.Errorf("rate = %v, want %v", rates["p-f1"], want)
	}
}

// Backfill should hand the slack to released flows, saturating the link.
func TestEchelonMADDBackfill(t *testing.T) {
	g := pipelineGroup(t, "p", 10, 4, 4)
	snap := &Snapshot{
		Now:    0,
		Groups: map[string]*GroupState{"p": {Group: g, Reference: 0}},
	}
	snap.Flows = []*FlowState{{Flow: g.Flows[1], GroupID: "p", Remaining: 4}}
	rates, err := EchelonMADD{Backfill: true}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rates["p-f1"])-1) > 1e-6 {
		t.Errorf("backfilled rate = %v, want full link", rates["p-f1"])
	}
}

// Two competing groups: the one that can achieve lower tardiness is planned
// first under SmallestTardinessFirst, and the ordering flips under
// LargestTardinessFirst.
func TestEchelonMADDOrdering(t *testing.T) {
	tight := pipelineGroup(t, "tight", 1, 1)   // deadline 0, 1 byte: solo τ = 1
	loose := pipelineGroup(t, "loose", 1, 0.2) // deadline 0, 0.2 bytes: solo τ = 0.2
	snap := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"tight": tight, "loose": loose}, nil)
	stf, err := EchelonMADD{}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	// loose is planned first: it takes the link until 0.2; tight is pushed
	// behind it, so tight's rate now is 0.
	if stf["loose-f0"] <= stf["tight-f0"] {
		t.Errorf("stf rates = %v, want loose prioritized", stf)
	}
	ltf, err := EchelonMADD{Order: LargestTardinessFirst}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if ltf["tight-f0"] <= ltf["loose-f0"] {
		t.Errorf("ltf rates = %v, want tight prioritized", ltf)
	}
}

// The motivating example (Fig. 2) at the moment all three flows are
// released: deadlines 0, 7/3, 14/3 (reference 0), remaining volumes 1 each
// on a unit link, now = 1.2. EchelonMADD must keep the earliest-deadline
// flow at full rate.
func TestEchelonMADDFig2Instant(t *testing.T) {
	g := pipelineGroup(t, "p", unit.Time(7.0/3), 1, 1, 1)
	snap := &Snapshot{
		Now:    1.2,
		Groups: map[string]*GroupState{"p": {Group: g, Reference: 0}},
	}
	// f0 partially sent (0.4 remaining is the fair-sharing trace; here use
	// the echelon trace where f0 finished at 1 — so only f1, f2 remain).
	snap.Flows = []*FlowState{
		{Flow: g.Flows[1], GroupID: "p", Remaining: 1, Release: 0.6},
		{Flow: g.Flows[2], GroupID: "p", Remaining: 1, Release: 1.2},
	}
	snap.Groups["p"].AchievedTardiness = 1 // f0 finished at 1, deadline 0
	rates, err := EchelonMADD{}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	// f1 target: deadline 7/3 + τ(=1) = 10/3; minimal rate 1/(10/3-1.2).
	want1 := 1.0 / (10.0/3 - 1.2)
	if math.Abs(float64(rates["p-f1"])-want1) > 1e-6 {
		t.Errorf("f1 rate = %v, want %v", rates["p-f1"], want1)
	}
	// f2 target: 14/3 + 1 = 17/3; it may share the remaining capacity.
	if rates["p-f2"] < 0 {
		t.Errorf("f2 rate = %v", rates["p-f2"])
	}
}

// minTardiness must report an error when a port has zero capacity.
func TestEchelonMADDZeroCapacity(t *testing.T) {
	net := fabric.NewNetwork()
	if err := net.AddHost("a", "", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost("b", "", 1, 1); err != nil {
		t.Fatal(err)
	}
	g := coflowGroup(t, "g", 1)
	snap := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"g": g}, nil)
	if _, err := (EchelonMADD{}).Schedule(snap, net); err == nil {
		t.Error("zero-capacity port should fail scheduling")
	}
}

// Mixed coflow + pipeline groups sharing a link must remain feasible and
// deterministic.
func TestEchelonMADDMixedGroupsDeterministic(t *testing.T) {
	cg := coflowGroup(t, "c", 1, 1)
	pg := pipelineGroup(t, "p", 1, 1, 1)
	snap := buildSnapshot(t, 0, map[string]*core.EchelonFlow{"c": cg, "p": pg}, nil)
	first, err := EchelonMADD{Backfill: true}.Schedule(snap, singleLinkNet(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := EchelonMADD{Backfill: true}.Schedule(snap, singleLinkNet(t))
		if err != nil {
			t.Fatal(err)
		}
		for id := range first {
			if math.Abs(float64(first[id]-again[id])) > 1e-12 {
				t.Fatalf("nondeterministic rate for %s: %v vs %v", id, first[id], again[id])
			}
		}
	}
}
