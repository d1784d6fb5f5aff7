package experiments

import (
	"fmt"

	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/metrics"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// rackFabric builds 2 racks × 4 hosts with NIC capacity 6 and uplinks
// scaled by the oversubscription factor (1:1 means uplink = 4 NICs' worth).
// Each rack is a leaf of a one-spine network.
func rackFabric(oversub float64) (*fabric.Network, []string, error) {
	net := fabric.NewNetwork()
	var hosts []string
	for r := 0; r < 2; r++ {
		rack := fmt.Sprintf("rack%d", r)
		upl := unit.Rate(4 * 6 / oversub)
		if err := net.AddLeaf(rack, upl, upl); err != nil {
			return nil, nil, err
		}
		for h := 0; h < 4; h++ {
			name := fmt.Sprintf("r%dh%d", r, h)
			hosts = append(hosts, name)
			if err := net.AddHost(name, rack, 6, 6); err != nil {
				return nil, nil, err
			}
		}
	}
	return net, hosts, nil
}

// rackMixWorkload is E11's tenant mix on a rackFabric host list: a DP job
// whose ring alternates racks (every hop crosses an uplink) plus a pipeline
// confined to one rack. Shared with the scheduler golden-equivalence test.
func rackMixWorkload(hosts []string) (*ddlt.Workload, error) {
	// DP spans the racks: workers alternate racks so every ring hop
	// crosses an uplink.
	dp, err := ddlt.DPAllReduce{
		Name: "dp", Model: ddlt.Uniform("m1", 4, 6, 1, 0.5, 0.5),
		Workers:     []string{hosts[0], hosts[4], hosts[1], hosts[5]},
		BucketCount: 2, Iterations: 2,
	}.Build()
	if err != nil {
		return nil, err
	}
	// PP lives inside rack 1.
	pp, err := ddlt.PipelineGPipe{
		Name: "pp", Model: ddlt.Uniform("m2", 4, 2, 4, 1, 1),
		Workers:      []string{hosts[6], hosts[7], hosts[2], hosts[3]}[:2],
		MicroBatches: 4, Iterations: 2,
	}.Build()
	if err != nil {
		return nil, err
	}
	return ddlt.Merge(dp, pp)
}

// ExtRackOversubscription (E11) lifts the paper's pure big-switch
// assumption: a DP job spanning both racks (its ring crosses the uplinks)
// shares the fabric with a PP job placed inside one rack. As the
// oversubscription factor grows, cross-rack traffic throttles and the
// schedulers must keep the intra-rack tenant unharmed.
func ExtRackOversubscription() (*Report, error) {
	r := &Report{ID: "e11", Title: "Two-tier fabric: rack oversubscription"}
	r.Table = metrics.NewTable("oversub", "scheduler", "dp iter time", "pp iter time", "sum tardiness")

	type key struct {
		over  float64
		sched string
	}
	res := map[key]*sim.Result{}
	for _, over := range []float64{1, 2, 4} {
		for _, s := range []sched.Scheduler{
			sched.EchelonMADD{Backfill: true},
			sched.CoflowMADD{Backfill: true},
			sched.Fair{},
		} {
			net, hosts, err := rackFabric(over)
			if err != nil {
				return nil, err
			}
			merged, err := rackMixWorkload(hosts)
			if err != nil {
				return nil, err
			}
			simr, err := sim.New(sim.Options{Graph: merged.Graph, Net: net, Scheduler: s, Arrangements: merged.Arrangements})
			if err != nil {
				return nil, err
			}
			out, err := simr.Run()
			if err != nil {
				return nil, err
			}
			res[key{over, s.Name()}] = out
			r.Table.AddRowf(over, s.Name(),
				float64(jobMakespan(out, "dp/")/2), float64(jobMakespan(out, "pp/")/2),
				float64(out.TotalTardiness()))
		}
	}

	// Oversubscription slows the cross-rack DP job monotonically...
	e1 := res[key{1, "echelon-madd+bf"}]
	e4 := res[key{4, "echelon-madd+bf"}]
	r.check("oversubscription throttles the cross-rack job",
		jobMakespan(e4, "dp/") > jobMakespan(e1, "dp/"),
		"dp makespan %v at 4:1 vs %v at 1:1", jobMakespan(e4, "dp/"), jobMakespan(e1, "dp/"))
	// ...but the intra-rack pipeline is insulated (its traffic never
	// touches an uplink).
	ppDrift := relClose(float64(jobMakespan(e4, "pp/")), float64(jobMakespan(e1, "pp/")), 0.05)
	r.check("intra-rack tenant insulated from uplink contention", ppDrift,
		"pp makespan %v at 4:1 vs %v at 1:1", jobMakespan(e4, "pp/"), jobMakespan(e1, "pp/"))
	for _, over := range []float64{1, 2, 4} {
		e := res[key{over, "echelon-madd+bf"}]
		c := res[key{over, "coflow-madd+bf"}]
		f := res[key{over, "fair"}]
		r.check(fmt.Sprintf("%.0f:1 echelon beats fair on sum tardiness", over),
			float64(e.TotalTardiness()) < float64(f.TotalTardiness()),
			"%v vs %v", e.TotalTardiness(), f.TotalTardiness())
		r.check(fmt.Sprintf("%.0f:1 echelon within 15%% of coflow", over),
			float64(e.TotalTardiness()) <= float64(c.TotalTardiness())*1.15+unit.Eps,
			"%v vs %v", e.TotalTardiness(), c.TotalTardiness())
	}
	r.note("Fabric: 2 racks x 4 hosts (NIC 6); uplink = 24/oversub per direction.")
	r.note("This mix is dominated by Coflow-compliant groups, so SEBF-ordered CoflowMADD edges")
	r.note("out the tardiness-ordered EchelonMADD by a few percent — the reverse of E1/E5, where")
	r.note("staggered arrangements dominate. Both consistently beat arrangement-oblivious fair.")
	return r, nil
}
