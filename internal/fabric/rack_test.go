package fabric

import (
	"fmt"
	"math"
	"testing"

	"echelonflow/internal/unit"
)

// twoRackNet: racks A{a1,a2} and B{b1,b2} as leaves of a one-spine network,
// host NICs 4, uplinks 2 (2:1 oversubscription).
func twoRackNet(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	for _, r := range []string{"A", "B"} {
		if err := n.AddLeaf(r, 2, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range [][2]string{{"a1", "A"}, {"a2", "A"}, {"b1", "B"}, {"b2", "B"}} {
		if err := n.AddHost(h[0], h[1], 4, 4); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestRackValidation(t *testing.T) {
	n := NewNetwork()
	if err := n.AddLeaf("", 1, 1); err == nil {
		t.Error("empty rack name accepted")
	}
	if err := n.AddLeaf("r", -1, 1); err == nil {
		t.Error("negative uplink accepted")
	}
	if err := n.AddLeaf("r", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLeaf("r", 1, 1); err == nil {
		t.Error("duplicate rack accepted")
	}
	if err := n.AddHost("h", "ghost", 1, 1); err == nil {
		t.Error("unknown rack accepted")
	}
	if n.Host("h") != nil {
		t.Error("host attached despite the unknown rack")
	}
	if err := n.AddHost("h", "r", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.MoveHost("ghost", "r"); err == nil {
		t.Error("moving an unknown host accepted")
	}
	if err := n.MoveHost("h", "ghost"); err == nil {
		t.Error("moving to an unknown rack accepted")
	}
	if n.LeafOf("h") != "r" || n.LeafOf("ghost") != "" {
		t.Error("LeafOf wrong")
	}
	gen := n.Generation()
	if err := n.MoveHost("h", "r"); err != nil || n.Generation() != gen {
		t.Errorf("no-op move: err %v, generation %d -> %d", err, gen, n.Generation())
	}
	// A core-attached host moved onto the first leaf is a real move.
	n.AddUniformHosts(1, "c")
	gen = n.Generation()
	if err := n.MoveHost("c", "r"); err != nil || n.LeafOf("c") != "r" || n.Generation() == gen {
		t.Errorf("core-to-leaf move: err %v, leaf %q, generation %d -> %d", err, n.LeafOf("c"), gen, n.Generation())
	}
}

// A flow crosses racks — and pays uplink and downlink — only when both
// endpoints sit on leaves and the leaves differ.
func TestCrossRack(t *testing.T) {
	n := twoRackNet(t)
	if got := n.FlowLinks("a1", "a2", nil); len(got) != 2 {
		t.Errorf("intra-rack flow links = %v, want the two NICs", got)
	}
	got := n.FlowLinks("a1", "b1", nil)
	want := []LinkKey{{LinkEgress, "a1"}, {LinkIngress, "b1"}, {LinkUp, "A/s0"}, {LinkDown, "B/s0"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cross-rack flow links = %v, want %v", got, want)
	}
	// Core-attached peers never cross.
	if err := n.AddHost("x", "", 4, 4); err != nil {
		t.Fatal(err)
	}
	if got := n.FlowLinks("x", "b1", nil); len(got) != 2 {
		t.Errorf("core-attached flow links = %v, want the two NICs", got)
	}
	n2 := NewNetwork()
	n2.AddUniformHosts(1, "x", "y")
	if got := n2.FlowLinks("x", "y", nil); len(got) != 2 {
		t.Errorf("big-switch flow links = %v, want the two NICs", got)
	}
}

func TestRackFeasibility(t *testing.T) {
	n := twoRackNet(t)
	reqs := []Request{
		{ID: "x", Src: "a1", Dst: "b1"},
		{ID: "y", Src: "a2", Dst: "b2"},
	}
	// Each flow could do 4 on NICs, but rack A's uplink is 2 total.
	ok := map[string]unit.Rate{"x": 1, "y": 1}
	if err := n.Feasible(reqs, ok); err != nil {
		t.Errorf("feasible rejected: %v", err)
	}
	bad := map[string]unit.Rate{"x": 1.5, "y": 1.5}
	if err := n.Feasible(reqs, bad); err == nil {
		t.Error("uplink oversubscription accepted")
	}
	// Intra-rack traffic ignores the uplink.
	intra := []Request{{ID: "z", Src: "a1", Dst: "a2"}}
	if err := n.Feasible(intra, map[string]unit.Rate{"z": 4}); err != nil {
		t.Errorf("intra-rack full NIC rate rejected: %v", err)
	}
}

func TestRackMaxMin(t *testing.T) {
	n := twoRackNet(t)
	reqs := []Request{
		{ID: "x", Src: "a1", Dst: "b1"}, // cross-rack: capped by uplink share
		{ID: "y", Src: "a2", Dst: "b2"}, // cross-rack
		{ID: "z", Src: "a1", Dst: "a2"}, // intra-rack: NIC-limited only
	}
	rates, err := n.MaxMin(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Uplink A (2) shared by x,y => 1 each; z then gets a1's leftover
	// egress: 4 - 1 = 3.
	if math.Abs(float64(rates["x"])-1) > 1e-9 || math.Abs(float64(rates["y"])-1) > 1e-9 {
		t.Errorf("cross-rack rates = %v", rates)
	}
	if math.Abs(float64(rates["z"])-3) > 1e-9 {
		t.Errorf("intra-rack rate = %v, want 3", rates["z"])
	}
	if err := n.Feasible(reqs, rates); err != nil {
		t.Errorf("maxmin infeasible: %v", err)
	}
}

func TestRackResidual(t *testing.T) {
	n := twoRackNet(t)
	res := n.NewResidual()
	if got := res.Available("a1", "b1"); got != 2 {
		t.Errorf("cross-rack available = %v, want uplink 2", got)
	}
	res.Take("a1", "b1", 2)
	if got := res.Available("a2", "b2"); got != 0 {
		t.Errorf("after uplink drained, available = %v, want 0", got)
	}
	if got := res.Available("a2", "a1"); got != 4 {
		t.Errorf("intra-rack available = %v, want 4", got)
	}
	if res.Free(LinkKey{LinkUp, "A/s0"}) != 0 || res.Free(LinkKey{LinkDown, "B/s0"}) != 0 {
		t.Error("rack link residuals wrong")
	}
}

func TestRackBottleneckTime(t *testing.T) {
	n := twoRackNet(t)
	vols := []VolumeDemand{
		{Src: "a1", Dst: "b1", Volume: 4},
		{Src: "a2", Dst: "b2", Volume: 4},
	}
	// 8 bytes over uplink A at rate 2 => 4 (NICs would allow 1 each).
	got, err := n.BottleneckTime(vols)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEq(4) {
		t.Errorf("BottleneckTime = %v, want 4", got)
	}
}

func TestSetRackCapacity(t *testing.T) {
	n := twoRackNet(t)
	if err := n.SetSpineLink("A", 0, 8, 6); err != nil {
		t.Fatal(err)
	}
	if up, down := n.LinkCapacity(LinkKey{LinkUp, "A/s0"}), n.LinkCapacity(LinkKey{LinkDown, "A/s0"}); up != 8 || down != 6 {
		t.Errorf("rack A links = %v up, %v down, want 8, 6", up, down)
	}
	if err := n.SetSpineLink("ghost", 0, 1, 1); err == nil {
		t.Error("unknown rack accepted")
	}
	if err := n.SetSpineLink("A", 1, 1, 1); err == nil {
		t.Error("second spine of a one-spine network accepted")
	}
	if err := n.SetSpineLink("A", 0, -1, 1); err == nil {
		t.Error("negative capacity accepted")
	}
}
