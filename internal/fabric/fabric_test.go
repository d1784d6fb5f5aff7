package fabric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"echelonflow/internal/unit"
)

func twoHosts(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork()
	n.AddUniformHosts(1, "a", "b")
	return n
}

func TestAddHostErrors(t *testing.T) {
	n := NewNetwork()
	if err := n.AddHost("", "", 1, 1); err == nil {
		t.Error("empty name accepted")
	}
	if err := n.AddHost("a", "", -1, 1); err == nil {
		t.Error("negative egress accepted")
	}
	if err := n.AddHost("a", "", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddHost("a", "", 1, 1); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestHostsOrder(t *testing.T) {
	n := NewNetwork()
	n.AddUniformHosts(2, "w3", "w1", "w2")
	hosts := n.Hosts()
	if len(hosts) != 3 || hosts[0].Name != "w3" || hosts[1].Name != "w1" {
		t.Errorf("Hosts order = %v", hosts)
	}
	if n.Len() != 3 {
		t.Errorf("Len = %d", n.Len())
	}
	if n.Host("w2") == nil || n.Host("nope") != nil {
		t.Error("Host lookup wrong")
	}
}

func TestMaxMinSingleLink(t *testing.T) {
	n := twoHosts(t)
	reqs := []Request{
		{ID: "f1", Src: "a", Dst: "b"},
		{ID: "f2", Src: "a", Dst: "b"},
		{ID: "f3", Src: "a", Dst: "b"},
	}
	rates, err := n.MaxMin(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if math.Abs(float64(rates[r.ID])-1.0/3) > 1e-9 {
			t.Errorf("rate[%s] = %v, want 1/3", r.ID, rates[r.ID])
		}
	}
}

func TestMaxMinRespectsCaps(t *testing.T) {
	n := twoHosts(t)
	reqs := []Request{
		{ID: "small", Src: "a", Dst: "b", Cap: 0.1},
		{ID: "big", Src: "a", Dst: "b"},
	}
	rates, err := n.MaxMin(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rates["small"])-0.1) > 1e-9 {
		t.Errorf("capped flow rate = %v, want 0.1", rates["small"])
	}
	if math.Abs(float64(rates["big"])-0.9) > 1e-9 {
		t.Errorf("uncapped flow rate = %v, want 0.9 (released share)", rates["big"])
	}
}

func TestMaxMinMultiBottleneck(t *testing.T) {
	// Classic example: hosts a,b send to c; a also sends to d.
	// c's ingress (1) is shared by two flows (share 0.5); then a's egress
	// residual (1 - 0.5) goes entirely to the a→d flow.
	n := NewNetwork()
	n.AddUniformHosts(1, "a", "b", "c", "d")
	reqs := []Request{
		{ID: "ac", Src: "a", Dst: "c"},
		{ID: "bc", Src: "b", Dst: "c"},
		{ID: "ad", Src: "a", Dst: "d"},
	}
	rates, err := n.MaxMin(reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"ac": 0.5, "bc": 0.5, "ad": 0.5}
	for id, w := range want {
		if math.Abs(float64(rates[id])-w) > 1e-9 {
			t.Errorf("rate[%s] = %v, want %v", id, rates[id], w)
		}
	}
}

func TestMaxMinAsymmetricPorts(t *testing.T) {
	n := NewNetwork()
	if err := n.AddHost("fat", "", 10, 10); err != nil {
		t.Fatal(err)
	}
	if err := n.AddHost("thin", "", 1, 1); err != nil {
		t.Fatal(err)
	}
	rates, err := n.MaxMin([]Request{{ID: "f", Src: "fat", Dst: "thin"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rates["f"])-1) > 1e-9 {
		t.Errorf("rate = %v, want 1 (thin ingress)", rates["f"])
	}
}

func TestGreedyFillOrder(t *testing.T) {
	n := twoHosts(t)
	reqs := []Request{
		{ID: "first", Src: "a", Dst: "b", Cap: 0.7},
		{ID: "second", Src: "a", Dst: "b"},
		{ID: "starved", Src: "a", Dst: "b"},
	}
	rates, err := n.GreedyFill(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rates["first"] != 0.7 {
		t.Errorf("first = %v", rates["first"])
	}
	if math.Abs(float64(rates["second"])-0.3) > 1e-9 {
		t.Errorf("second = %v, want 0.3", rates["second"])
	}
	if rates["starved"] != 0 {
		t.Errorf("starved = %v, want 0", rates["starved"])
	}
}

func TestEndpointValidation(t *testing.T) {
	n := twoHosts(t)
	cases := []Request{
		{ID: "x", Src: "missing", Dst: "b"},
		{ID: "x", Src: "a", Dst: "missing"},
		{ID: "x", Src: "a", Dst: "a"},
	}
	for _, req := range cases {
		if _, err := n.MaxMin([]Request{req}); err == nil {
			t.Errorf("MaxMin accepted bad request %+v", req)
		}
		if _, err := n.GreedyFill([]Request{req}); err == nil {
			t.Errorf("GreedyFill accepted bad request %+v", req)
		}
		if err := n.Feasible([]Request{req}, nil); err == nil {
			t.Errorf("Feasible accepted bad request %+v", req)
		}
	}
}

func TestFeasible(t *testing.T) {
	n := twoHosts(t)
	reqs := []Request{
		{ID: "f1", Src: "a", Dst: "b"},
		{ID: "f2", Src: "a", Dst: "b"},
	}
	ok := map[string]unit.Rate{"f1": 0.5, "f2": 0.5}
	if err := n.Feasible(reqs, ok); err != nil {
		t.Errorf("feasible allocation rejected: %v", err)
	}
	bad := map[string]unit.Rate{"f1": 0.8, "f2": 0.5}
	if err := n.Feasible(reqs, bad); err == nil {
		t.Error("oversubscribed allocation accepted")
	}
	neg := map[string]unit.Rate{"f1": -0.1}
	if err := n.Feasible(reqs, neg); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestResidual(t *testing.T) {
	n := twoHosts(t)
	res := n.NewResidual()
	if res.Available("a", "b") != 1 {
		t.Errorf("Available = %v", res.Available("a", "b"))
	}
	res.Take("a", "b", 0.6)
	if math.Abs(float64(res.Available("a", "b"))-0.4) > 1e-9 {
		t.Errorf("after Take, Available = %v", res.Available("a", "b"))
	}
	res.Take("a", "b", 5) // over-take clamps
	if res.Available("a", "b") != 0 {
		t.Errorf("over-taken residual = %v", res.Available("a", "b"))
	}
}

func TestBottleneckTime(t *testing.T) {
	n := NewNetwork()
	n.AddUniformHosts(2, "a", "b", "c")
	// a sends 4 to b and 4 to c: a's egress carries 8 at rate 2 => 4.
	vols := []VolumeDemand{
		{Src: "a", Dst: "b", Volume: 4},
		{Src: "a", Dst: "c", Volume: 4},
	}
	got, err := n.BottleneckTime(vols)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEq(4) {
		t.Errorf("BottleneckTime = %v, want 4", got)
	}
	if _, err := n.BottleneckTime([]VolumeDemand{{Src: "a", Dst: "zz", Volume: 1}}); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestBottleneckTimeIngress(t *testing.T) {
	n := NewNetwork()
	n.AddUniformHosts(1, "a", "b", "c")
	// b and c both send 3 to a: a's ingress carries 6 at rate 1 => 6.
	vols := []VolumeDemand{
		{Src: "b", Dst: "a", Volume: 3},
		{Src: "c", Dst: "a", Volume: 3},
	}
	got, err := n.BottleneckTime(vols)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEq(6) {
		t.Errorf("BottleneckTime = %v, want 6", got)
	}
}

// randomScenario builds a random network and request set for property tests.
func randomScenario(rng *rand.Rand) (*Network, []Request) {
	n := NewNetwork()
	hostCount := 2 + rng.Intn(6)
	names := make([]string, hostCount)
	for i := range names {
		names[i] = string(rune('a' + i))
		// Capacities in [0.5, 10.5).
		_ = n.AddHost(names[i], "", unit.Rate(0.5+10*rng.Float64()), unit.Rate(0.5+10*rng.Float64()))
	}
	flowCount := 1 + rng.Intn(12)
	reqs := make([]Request, 0, flowCount)
	for i := 0; i < flowCount; i++ {
		s := rng.Intn(hostCount)
		d := rng.Intn(hostCount)
		if s == d {
			d = (d + 1) % hostCount
		}
		var cap unit.Rate
		if rng.Float64() < 0.3 {
			cap = unit.Rate(0.1 + rng.Float64())
		}
		reqs = append(reqs, Request{ID: string(rune('A' + i)), Src: names[s], Dst: names[d], Cap: cap})
	}
	return n, reqs
}

// Property: MaxMin allocations are always feasible and respect caps.
func TestMaxMinFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, reqs := randomScenario(rng)
		rates, err := n.MaxMin(reqs)
		if err != nil {
			return false
		}
		if err := n.Feasible(reqs, rates); err != nil {
			t.Logf("infeasible: %v", err)
			return false
		}
		for _, r := range reqs {
			if r.Cap > 0 && float64(rates[r.ID]) > float64(r.Cap)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MaxMin is Pareto-efficient — every flow is limited by either its
// cap or a saturated port.
func TestMaxMinParetoProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, reqs := randomScenario(rng)
		rates, err := n.MaxMin(reqs)
		if err != nil {
			return false
		}
		eg := make(map[string]unit.Rate)
		in := make(map[string]unit.Rate)
		for _, r := range reqs {
			eg[r.Src] += rates[r.ID]
			in[r.Dst] += rates[r.ID]
		}
		const tol = 1e-6
		for _, r := range reqs {
			atCap := r.Cap > 0 && float64(rates[r.ID]) >= float64(r.Cap)-tol
			egSat := float64(eg[r.Src]) >= float64(n.Host(r.Src).Egress)-tol
			inSat := float64(in[r.Dst]) >= float64(n.Host(r.Dst).Ingress)-tol
			if !atCap && !egSat && !inSat {
				t.Logf("flow %s not limited: rate=%v cap=%v eg=%v/%v in=%v/%v",
					r.ID, rates[r.ID], r.Cap, eg[r.Src], n.Host(r.Src).Egress, in[r.Dst], n.Host(r.Dst).Ingress)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: GreedyFill allocations are always feasible.
func TestGreedyFillFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, reqs := randomScenario(rng)
		rates, err := n.GreedyFill(reqs)
		if err != nil {
			return false
		}
		return n.Feasible(reqs, rates) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
