package queue

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

func testNet(t *testing.T) *fabric.Network {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "a", "b", "c", "d")
	return net
}

// rackedNet puts a, b in rack r0 and c, d in rack r1: leaves of a
// one-spine network.
func rackedNet(t *testing.T) *fabric.Network {
	t.Helper()
	net := fabric.NewNetwork()
	for _, r := range []string{"r0", "r1"} {
		if err := net.AddLeaf(r, 5, 5); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range [][2]string{{"a", "r0"}, {"b", "r0"}, {"c", "r1"}, {"d", "r1"}} {
		if err := net.AddHost(h[0], h[1], 10, 10); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func spec(workers int) wire.JobSpec {
	return wire.JobSpec{ID: "j", Paradigm: "dp", Workers: workers, Layers: 2,
		Params: 1, Fwd: 0.1, Bwd: 0.1, Iterations: 1}
}

func TestSpreadPrefersIdleHosts(t *testing.T) {
	v := NewView(testNet(t))
	v.Workers["a"] = 2
	v.Workers["b"] = 1
	hosts, err := Spread{}.Place(spec(2), v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hosts, []string{"c", "d"}) {
		t.Errorf("spread placed on %v, want [c d]", hosts)
	}
}

func TestPackPrefersBusyHosts(t *testing.T) {
	v := NewView(testNet(t))
	v.Workers["a"] = 2
	v.Workers["b"] = 1
	hosts, err := Pack{}.Place(spec(2), v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hosts, []string{"a", "b"}) {
		t.Errorf("pack placed on %v, want [a b]", hosts)
	}
}

func TestLoadBreaksWorkerTies(t *testing.T) {
	v := NewView(testNet(t))
	v.Egress["a"] = 100 // load 1.0 on a; others idle
	hosts, err := Spread{}.Place(spec(3), v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hosts, []string{"b", "c", "d"}) {
		t.Errorf("spread placed on %v, want [b c d]", hosts)
	}
}

func TestNetAwareStaysInRack(t *testing.T) {
	v := NewView(rackedNet(t))
	// c is the least loaded host, but once a worker lands in r1 the second
	// should stay there rather than jump racks to an equally-idle r0 host.
	v.Egress["a"] = 10
	v.Egress["b"] = 10
	hosts, err := NetAware{}.Place(spec(2), v)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hosts, []string{"c", "d"}) {
		t.Errorf("netaware placed on %v, want [c d]", hosts)
	}
}

func TestNetAwareCrossesWhenRackFull(t *testing.T) {
	v := NewView(rackedNet(t))
	v.Egress["a"] = 10
	v.Egress["b"] = 10
	hosts, err := NetAware{}.Place(spec(3), v)
	if err != nil {
		t.Fatal(err)
	}
	// Three workers cannot fit one two-host rack; the spill host must be the
	// less loaded of r0 (names break the tie).
	if !reflect.DeepEqual(hosts, []string{"c", "d", "a"}) {
		t.Errorf("netaware placed on %v, want [c d a]", hosts)
	}
}

func TestNetAwareNoRacksDegradesToLoad(t *testing.T) {
	v := NewView(testNet(t))
	v.Egress["a"] = 50
	hosts, err := NetAware{}.Place(spec(2), v)
	if err != nil {
		t.Fatal(err)
	}
	// With every host in the "" pseudo-rack, the rack bias never fires after
	// the first pick, so selection is purely load-then-name.
	if !reflect.DeepEqual(hosts, []string{"b", "c"}) {
		t.Errorf("netaware placed on %v, want [b c]", hosts)
	}
}

func TestPlaceTooFewHosts(t *testing.T) {
	v := NewView(testNet(t))
	for _, p := range []Placer{Pack{}, Spread{}, NetAware{}} {
		if _, err := p.Place(spec(5), v); err == nil {
			t.Errorf("%s accepted a 5-worker job on a 4-host fabric", p.Name())
		}
	}
	// ps needs workers+1.
	ps := spec(4)
	ps.Paradigm = "ps"
	if _, err := (Spread{}).Place(ps, v); err == nil {
		t.Error("spread accepted ps job needing 5 hosts on 4")
	}
}

func TestPlacersAreDeterministic(t *testing.T) {
	for _, p := range []Placer{Pack{}, Spread{}, NetAware{}} {
		v := NewView(rackedNet(t))
		v.Workers["b"] = 1
		v.Ingress["d"] = 30
		first, err := p.Place(spec(3), v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := p.Place(spec(3), v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, first) {
				t.Fatalf("%s not deterministic: %v then %v", p.Name(), first, again)
			}
		}
	}
}

func TestPlacerByName(t *testing.T) {
	for _, name := range []string{"pack", "spread", "netaware"} {
		p, err := PlacerByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("PlacerByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := PlacerByName("random"); err == nil {
		t.Error("unknown placer accepted")
	}
}

func TestTotalCapacity(t *testing.T) {
	net := fabric.NewNetwork()
	if err := net.AddHost("x", "", 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHost("y", "", 6, 8); err != nil {
		t.Fatal(err)
	}
	v := NewView(net)
	if got := v.TotalCapacity(); got != unit.Rate(10) {
		t.Errorf("TotalCapacity = %v, want 10 (min(10,4)+min(6,8))", got)
	}
}

func TestPlacersAvoidFaultedHost(t *testing.T) {
	// A faulted host (both ports at zero) used to report load 0 and so rank
	// as the *least* loaded target: Spread and NetAware aimed every new job
	// straight at the dead NIC. It must now lose to any live host.
	for _, p := range []Placer{Pack{}, Spread{}, NetAware{}} {
		v := NewView(testNet(t))
		if err := v.Net.SetCapacity("a", 0, 0); err != nil {
			t.Fatal(err)
		}
		v.Egress["b"] = 90 // heavily loaded, but alive — still beats a
		v.Egress["c"] = 90
		v.Egress["d"] = 90
		hosts, err := p.Place(spec(3), v)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hosts {
			if h == "a" {
				t.Errorf("%s placed a worker on zero-capacity host a: %v", p.Name(), hosts)
			}
		}
	}
}

func TestPlaceUsesFaultedHostOnlyAsLastResort(t *testing.T) {
	// When the job cannot fit on the live hosts alone, dead hosts become
	// eligible again (the job stalls until recovery instead of being
	// rejected) — and they still sort behind every live host.
	v := NewView(testNet(t))
	if err := v.Net.SetCapacity("a", 0, 0); err != nil {
		t.Fatal(err)
	}
	hosts, err := Spread{}.Place(spec(4), v)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 4 || hosts[3] != "a" {
		t.Errorf("spread on a 4-of-4 job = %v, want faulted host a last", hosts)
	}
}

// The placers as they were before host keys were read once per Place, kept
// as the reference: every comparison re-reads the view.
func refLoad(v *View, host string) float64 {
	eg, in, ok := v.Net.Capacity(host)
	if !ok || eg <= 0 || in <= 0 {
		return math.Inf(1)
	}
	return float64(v.Egress[host])/float64(eg) + float64(v.Ingress[host])/float64(in)
}

func refPickSorted(v *View, need int, less func(a, b string) bool) []string {
	var names, alive []string
	for _, h := range v.Net.Hosts() {
		names = append(names, h.Name)
		if eg, in, ok := v.Net.Capacity(h.Name); ok && eg > 0 && in > 0 {
			alive = append(alive, h.Name)
		}
	}
	if len(alive) >= need {
		names = alive
	}
	sort.SliceStable(names, func(i, j int) bool { return less(names[i], names[j]) })
	return names[:need]
}

func refPlace(placer string, v *View, need int) []string {
	switch placer {
	case "pack":
		return refPickSorted(v, need, func(a, b string) bool {
			if v.Workers[a] != v.Workers[b] {
				return v.Workers[a] > v.Workers[b]
			}
			la, lb := refLoad(v, a), refLoad(v, b)
			if la != lb {
				return la > lb
			}
			return a < b
		})
	case "spread":
		return refPickSorted(v, need, func(a, b string) bool {
			if v.Workers[a] != v.Workers[b] {
				return v.Workers[a] < v.Workers[b]
			}
			la, lb := refLoad(v, a), refLoad(v, b)
			if la != lb {
				return la < lb
			}
			return a < b
		})
	}
	var chosen []string
	used := make(map[string]bool)
	rackCount := make(map[string]int)
	for len(chosen) < need {
		best, bestScore := "", 0.0
		for _, h := range v.Net.Hosts() {
			if used[h.Name] {
				continue
			}
			score := refLoad(v, h.Name) + float64(v.Workers[h.Name])
			if rack := v.Net.LeafOf(h.Name); len(chosen) > 0 && rackCount[rack] == 0 {
				score += DefaultCrossRackPenalty
			}
			if best == "" || score < bestScore || (score == bestScore && h.Name < best) {
				best, bestScore = h.Name, score
			}
		}
		chosen = append(chosen, best)
		used[best] = true
		rackCount[v.Net.LeafOf(best)]++
	}
	return chosen
}

// Every placer picks exactly the hosts its re-reading reference picks, on
// random views with ties, dead ports and racks.
func TestPlacersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 300; trial++ {
		net := fabric.NewNetwork()
		n := 3 + rng.Intn(30)
		racks := 1 + rng.Intn(4)
		for r := 0; r < racks; r++ {
			if err := net.AddLeaf(fmt.Sprintf("r%d", r), 5, 5); err != nil {
				t.Fatal(err)
			}
		}
		v := NewView(net)
		for i := 0; i < n; i++ {
			h := fmt.Sprintf("h%02d", rng.Intn(100)) // insertion order is not name order
			if net.Host(h) != nil {
				continue
			}
			eg, in := unit.Rate(1+rng.Intn(3)), unit.Rate(1+rng.Intn(3))
			switch rng.Intn(6) {
			case 0:
				eg, in = 0, 0
			case 1:
				in = 0
			}
			leaf := "" // core-attached
			if rng.Intn(3) > 0 {
				leaf = fmt.Sprintf("r%d", rng.Intn(racks))
			}
			if err := net.AddHost(h, leaf, eg, in); err != nil {
				t.Fatal(err)
			}
			v.Workers[h] = rng.Intn(3)
			v.Egress[h] = unit.Bytes(rng.Intn(3))
			v.Ingress[h] = unit.Bytes(rng.Intn(3))
		}
		s := spec(2 + rng.Intn(4))
		if rng.Intn(3) == 0 {
			s.Paradigm = "ps"
		}
		if HostsNeeded(s) > net.Len() {
			continue
		}
		for _, p := range []Placer{Pack{}, Spread{}, NetAware{}} {
			got, err := p.Place(s, v)
			if err != nil {
				t.Fatal(err)
			}
			if want := refPlace(p.Name(), v, HostsNeeded(s)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s placed %v, reference %v", trial, p.Name(), got, want)
			}
		}
	}
}
