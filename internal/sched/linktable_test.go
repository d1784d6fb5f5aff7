package sched

import (
	"fmt"
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

// The cost of a pass is O(flows × path length) whatever the fabric's size.
// Shown as a count, not a timing: one Schedule, and one Apply, of the same
// eight jobs make the same number of structural fabric queries on 64 hosts
// as on 4096, and never enumerate the fabric's links.
func TestPassCostIndependentOfFabricSize(t *testing.T) {
	builders := map[string]func(names []string) fabric.Fabric{
		"bigswitch": func(names []string) fabric.Fabric {
			net := fabric.NewNetwork()
			net.AddUniformHosts(10, names...)
			return net
		},
		"leafspine": func(names []string) fabric.Fabric {
			spec, err := fabric.ParseSpec("leafspine:hosts=4,spines=4,oversub=2")
			if err != nil {
				t.Fatal(err)
			}
			hosts := make([]fabric.HostCap, len(names))
			for i, name := range names {
				hosts[i] = fabric.HostCap{Name: name, Egress: 10, Ingress: 10}
			}
			ls, err := spec.Build(hosts)
			if err != nil {
				t.Fatal(err)
			}
			return ls
		},
	}
	type counts struct{ flowLinks, linkCapacity, links int }
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			var schedule, apply []counts
			for _, hosts := range []int{64, 4096} {
				names := make([]string, hosts)
				for i := range names {
					names[i] = fmt.Sprintf("h%04d", i)
				}
				net := &countingFabric{Fabric: build(names)}
				snap := eightJobs(t, names)
				d := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
				if _, err := d.inner.Schedule(snap, net); err != nil {
					t.Fatal(err)
				}
				schedule = append(schedule, counts{net.flowLinks, net.linkCapacity, net.links})

				// One flow of job0 finishes; the event replans job0's component.
				if _, err := d.Schedule(snap, net); err != nil {
					t.Fatal(err)
				}
				snap.Flows = snap.Flows[1:]
				d.PlanCache().InvalidateGroup("job0")
				*net = countingFabric{Fabric: net.Fabric}
				if _, ok, err := d.Apply(snap, net, Delta{Groups: []string{"job0"}}); err != nil || !ok {
					t.Fatalf("Apply: ok=%v err=%v (%+v)", ok, err, d.LastOutcome())
				}
				apply = append(apply, counts{net.flowLinks, net.linkCapacity, net.links})
			}
			for what, c := range map[string][]counts{"Schedule": schedule, "Apply": apply} {
				if c[0] != c[1] {
					t.Errorf("%s: fabric queries at 64 hosts %+v, at 4096 hosts %+v", what, c[0], c[1])
				}
				if c[0].links != 0 || c[0].flowLinks == 0 || c[0].linkCapacity == 0 {
					t.Errorf("%s: queries %+v, want no Links call and some path lookups", what, c[0])
				}
			}
			if schedule[0].flowLinks != 8*8 {
				t.Errorf("Schedule resolved %d paths for 64 flows, want one each", schedule[0].flowLinks)
			}
		})
	}
}
