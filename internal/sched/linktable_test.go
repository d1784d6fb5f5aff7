package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// countingFabric counts the structural queries a planning pass makes.
type countingFabric struct {
	fabric.Fabric
	flowLinks, linkCapacity, links int
}

func (c *countingFabric) FlowLinks(src, dst string, buf []fabric.LinkKey) []fabric.LinkKey {
	c.flowLinks++
	return c.Fabric.FlowLinks(src, dst, buf)
}

func (c *countingFabric) LinkCapacity(k fabric.LinkKey) unit.Rate {
	c.linkCapacity++
	return c.Fabric.LinkCapacity(k)
}

func (c *countingFabric) Links() []fabric.Link {
	c.links++
	return c.Fabric.Links()
}

// eightJobs is a fixed snapshot of eight 8-flow pipeline groups, each over
// four hosts drawn from the first 32 host names, strided so that on a
// 4-host-per-leaf fabric every flow crosses the core.
func eightJobs(t *testing.T, names []string) *Snapshot {
	t.Helper()
	snap := &Snapshot{Groups: make(map[string]*GroupState)}
	for j := 0; j < 8; j++ {
		flows := make([]*core.Flow, 8)
		for k := range flows {
			flows[k] = &core.Flow{
				ID:    fmt.Sprintf("j%df%d", j, k),
				Src:   names[j+8*(k%4)],
				Dst:   names[j+8*((k+1)%4)],
				Size:  unit.Bytes(64 + 8*k),
				Stage: k,
			}
		}
		g, err := core.New(fmt.Sprintf("job%d", j), core.Pipeline{T: 2}, flows...)
		if err != nil {
			t.Fatal(err)
		}
		snap.Groups[g.ID] = &GroupState{Group: g}
		for _, f := range g.Flows {
			snap.Flows = append(snap.Flows, &FlowState{Flow: f, GroupID: g.ID, Remaining: f.Size})
		}
	}
	return snap
}

// pairsAndLinks counts the distinct host pairs snap's flows join and the
// distinct links they cross on net.
func pairsAndLinks(net fabric.Fabric, snap *Snapshot) (pairs, links int) {
	seenPairs := make(map[[2]string]bool)
	seenLinks := make(map[fabric.LinkKey]bool)
	for _, fs := range snap.Flows {
		seenPairs[[2]string{fs.Flow.Src, fs.Flow.Dst}] = true
		for _, k := range net.FlowLinks(fs.Flow.Src, fs.Flow.Dst, nil) {
			seenLinks[k] = true
		}
	}
	return len(seenPairs), len(seenLinks)
}

// buildFabric builds a big switch, or a leaf-spine fabric of four hosts per
// leaf, over the named hosts at 10 units each but where caps says otherwise.
func buildFabric(t *testing.T, kind string, names []string, caps map[string]unit.Rate) fabric.Fabric {
	t.Helper()
	hosts := make([]fabric.HostCap, len(names))
	for i, name := range names {
		c, ok := caps[name]
		if !ok {
			c = 10
		}
		hosts[i] = fabric.HostCap{Name: name, Egress: c, Ingress: c}
	}
	spec := "bigswitch"
	if kind == "leafspine" {
		spec = "leafspine:hosts=4,spines=4,oversub=2"
	}
	s, err := fabric.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	net, err := s.Build(hosts)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func hostNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("h%04d", i)
	}
	return names
}

// The cost of a pass is O(flows × path length) whatever the fabric's size,
// and its structural fabric queries are O(host pairs) per fabric
// generation. Shown as counts, not timings. The first Schedule of eight
// jobs asks FlowLinks once per distinct host pair and LinkCapacity once per
// distinct link. A second pass and an Apply at the same generation ask
// neither through the path table; only the delta state's footprints call
// FlowLinks, once per flow of the groups they record. After SetCapacity the
// next pass asks again once per pair and link. Every count is the same on
// 64 hosts as on 4096, and nothing enumerates the fabric's links.
func TestPassCostIndependentOfFabricSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled link tables, and their path tables, at random")
	}
	// A collection between passes may empty the pool the path table lives in,
	// and a pass that moves to another P misses the table the last one put
	// in its own P's private slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type counts struct{ flowLinks, linkCapacity, links int }
	for _, kind := range []string{"bigswitch", "leafspine"} {
		t.Run(kind, func(t *testing.T) {
			var sizes [][]counts
			for _, hosts := range []int{64, 4096} {
				names := hostNames(hosts)
				net := &countingFabric{Fabric: buildFabric(t, kind, names, nil)}
				snap := eightJobs(t, names)
				d := NewDelta(EchelonMADD{Backfill: true})
				var got, want []counts
				step := func(what string, w counts, pass func() error) {
					*net = countingFabric{Fabric: net.Fabric}
					if err := pass(); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					c := counts{net.flowLinks, net.linkCapacity, net.links}
					if c != w {
						t.Errorf("%d hosts, %s: fabric queries %+v, want %+v", hosts, what, c, w)
					}
					got, want = append(got, c), append(want, w)
				}
				schedule := func(s Scheduler) func() error {
					return func() error { _, err := s.Schedule(snap, net); return err }
				}

				pairs, links := pairsAndLinks(net.Fabric, snap)
				if pairs != 32 {
					t.Fatalf("eightJobs joins %d host pairs, want 32", pairs)
				}
				step("first Schedule", counts{flowLinks: pairs, linkCapacity: links}, schedule(d.inner))
				step("second Schedule", counts{flowLinks: len(snap.Flows)}, schedule(d))

				// One flow of job0 finishes; the event replans job0's component.
				snap.Flows = snap.Flows[1:]
				step("Apply", counts{flowLinks: 7}, func() error {
					if _, ok, err := d.Apply(snap, net, Delta{Groups: []string{"job0"}}); err != nil || !ok {
						return fmt.Errorf("ok=%v err=%v (%+v)", ok, err, d.LastOutcome())
					}
					return nil
				})

				if err := net.SetCapacity(names[0], 5, 5); err != nil {
					t.Fatal(err)
				}
				pairs, links = pairsAndLinks(net.Fabric, snap)
				step("Schedule after SetCapacity", counts{flowLinks: pairs, linkCapacity: links}, schedule(d.inner))
				sizes = append(sizes, got)
			}
			if fmt.Sprint(sizes[0]) != fmt.Sprint(sizes[1]) {
				t.Errorf("fabric queries at 64 hosts %+v, at 4096 hosts %+v", sizes[0], sizes[1])
			}
		})
	}
}

// fresh schedules snap with a new scheduler on net, a newly built fabric
// which no path table has met.
func fresh(t *testing.T, snap *Snapshot, net fabric.Fabric) map[string]unit.Rate {
	t.Helper()
	rates, err := EchelonMADD{Backfill: true}.Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	return rates
}

// A capacity change between two passes reaches the second pass.
func TestPathTableFollowsSetCapacity(t *testing.T) {
	names := hostNames(32)
	for _, kind := range []string{"bigswitch", "leafspine"} {
		t.Run(kind, func(t *testing.T) {
			snap := eightJobs(t, names)
			net := buildFabric(t, kind, names, nil)
			e := EchelonMADD{Backfill: true}
			before, err := e.Schedule(snap, net)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.SetCapacity(names[0], 3, 3); err != nil {
				t.Fatal(err)
			}
			after, err := e.Schedule(snap, net)
			if err != nil {
				t.Fatal(err)
			}
			ref := buildFabric(t, kind, names, nil)
			if err := ref.SetCapacity(names[0], 3, 3); err != nil {
				t.Fatal(err)
			}
			want := fresh(t, snap, ref)
			sameRates(t, after, want, "after SetCapacity")
			if after["j0f0"] == before["j0f0"] {
				t.Fatalf("flow j0f0 keeps rate %v on its slowed host", before["j0f0"])
			}
		})
	}
}

// Two fabric values over the same host names, built alike but for one
// host's capacity and so at the same generation, alternate through one
// scheduler; each pass sees its own fabric.
func TestPathTableFollowsFabricValue(t *testing.T) {
	names := hostNames(32)
	slow := map[string]unit.Rate{names[0]: 3}
	for _, kind := range []string{"bigswitch", "leafspine"} {
		t.Run(kind, func(t *testing.T) {
			snap := eightJobs(t, names)
			nets := []fabric.Fabric{buildFabric(t, kind, names, nil), buildFabric(t, kind, names, slow)}
			if nets[0].Generation() != nets[1].Generation() {
				t.Fatalf("generations %d and %d differ", nets[0].Generation(), nets[1].Generation())
			}
			wants := []map[string]unit.Rate{
				fresh(t, snap, buildFabric(t, kind, names, nil)),
				fresh(t, snap, buildFabric(t, kind, names, slow)),
			}
			if wants[0]["j0f0"] == wants[1]["j0f0"] {
				t.Fatal("the two fabrics give flow j0f0 one rate")
			}
			e := EchelonMADD{Backfill: true}
			for i := 0; i < 6; i++ {
				got, err := e.Schedule(snap, nets[i%2])
				if err != nil {
					t.Fatal(err)
				}
				sameRates(t, got, wants[i%2], fmt.Sprintf("pass %d on fabric %d", i, i%2))
			}
		})
	}
}

// pairJobs groups flows over the given host pairs, eight to a pipeline
// group.
func pairJobs(t *testing.T, pairs [][2]string) *Snapshot {
	t.Helper()
	snap := &Snapshot{Groups: make(map[string]*GroupState)}
	for j := 0; j < len(pairs); j += 8 {
		var flows []*core.Flow
		for k, p := range pairs[j:min(j+8, len(pairs))] {
			flows = append(flows, &core.Flow{
				ID: fmt.Sprintf("p%df%d", j, k), Src: p[0], Dst: p[1], Size: unit.Bytes(64 + 8*k), Stage: k,
			})
		}
		g, err := core.New(fmt.Sprintf("pairs%d", j), core.Pipeline{T: 2}, flows...)
		if err != nil {
			t.Fatal(err)
		}
		snap.Groups[g.ID] = &GroupState{Group: g}
		for _, f := range g.Flows {
			snap.Flows = append(snap.Flows, &FlowState{Flow: f, GroupID: g.ID, Remaining: f.Size})
		}
	}
	return snap
}

// A run of passes over more distinct host pairs than a path table keeps
// empties the table along the way and plans every pass as a fresh fabric
// does.
func TestPathTableCrossesPairBound(t *testing.T) {
	// A collection between passes may empty the pool the path table lives
	// in, and so may a pass on another P; the run would not cross the bound.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	names := hostNames(72) // 72·71 ordered pairs, more than a table keeps
	caps := make(map[string]unit.Rate)
	for i, name := range names {
		caps[name] = unit.Rate(10 + i%7)
	}
	var pairs [][2]string
	for _, a := range names {
		for _, b := range names {
			if a != b {
				pairs = append(pairs, [2]string{a, b})
			}
		}
	}
	for _, kind := range []string{"bigswitch", "leafspine"} {
		t.Run(kind, func(t *testing.T) {
			// Passes of 60 flows, a count that does not divide the bound,
			// sweep every pair, then meet the first pairs again after the
			// table dropped them.
			var snaps []*Snapshot
			for j := 0; j < len(pairs)+512; j += 60 {
				chunk := make([][2]string, 60)
				for k := range chunk {
					chunk[k] = pairs[(j+k)%len(pairs)]
				}
				snaps = append(snaps, pairJobs(t, chunk))
			}
			// Every reference pass runs first: each on its own fabric, it
			// would empty the table the run under test fills.
			wants := make([]map[string]unit.Rate, len(snaps))
			for i, snap := range snaps {
				wants[i] = fresh(t, snap, buildFabric(t, kind, names, caps))
			}
			net := buildFabric(t, kind, names, caps)
			e := EchelonMADD{Backfill: true}
			for i, snap := range snaps {
				got, err := e.Schedule(snap, net)
				if err != nil {
					t.Fatal(err)
				}
				sameRates(t, got, wants[i], fmt.Sprintf("pass %d", i))
			}
		})
	}
}

// A pass that would take the path table past maxPairs starts it empty, and
// the pass after a fabric mutation does too.
func TestPathTableBound(t *testing.T) {
	names := hostNames(72)
	net := buildFabric(t, "leafspine", names, nil)
	var pt pathTable
	pt.begin(net, 0)
	for _, a := range names {
		for _, b := range names {
			if len(pt.bad) < maxPairs {
				pt.pair(a, b)
			}
		}
	}
	pt.begin(net, 0)
	if len(pt.bad) != maxPairs {
		t.Fatalf("a pass of no flows emptied a full table: %d pairs", len(pt.bad))
	}
	pt.begin(net, 1)
	if len(pt.bad) != 0 || len(pt.caps) != 0 {
		t.Fatalf("a pass crossing the bound kept %d pairs, %d links", len(pt.bad), len(pt.caps))
	}
	pt.pair(names[0], names[1])
	if err := net.SetCapacity(names[0], 3, 3); err != nil {
		t.Fatal(err)
	}
	pt.begin(net, 1)
	if len(pt.bad) != 0 {
		t.Fatalf("a mutated fabric's table kept %d pairs", len(pt.bad))
	}
}
