package experiments

import (
	"fmt"

	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/metrics"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// e16Hosts is the arena: 8 uniform hosts. On the leaf-spine backend they sit
// 2 per leaf under 4 leaves, 2 spines, and a 4:1 oversubscribed core; on the
// big-switch backend the same NICs hang off one non-blocking switch.
func e16Hosts() []string {
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i)
	}
	return names
}

const e16NIC = unit.Rate(8)

// e16Fabric builds the arena on one backend ("bigswitch" or "leafspine").
func e16Fabric(backend string) (fabric.Fabric, error) {
	spec := &fabric.Spec{Kind: "bigswitch"}
	if backend == "leafspine" {
		spec = &fabric.Spec{Kind: "leafspine", HostsPerLeaf: 2, Spines: 2, Oversub: 4}
	}
	var hosts []fabric.HostCap
	for _, name := range e16Hosts() {
		hosts = append(hosts, fabric.HostCap{Name: name, Egress: e16NIC, Ingress: e16NIC})
	}
	return spec.Build(hosts)
}

// e16Workload binds four identical 2-worker data-parallel jobs to host
// pairs. The two placements are isomorphic — every job owns both its hosts
// exclusively, with identical NICs — and differ only in where the hosts sit:
// "packed" pairs leaf-mates (h0+h1, h2+h3, ...), "spread" pairs across the
// core (h0+h4, h1+h5, ...).
func e16Workload(placement string) (*ddlt.Workload, error) {
	hosts := e16Hosts()
	var parts []*ddlt.Workload
	for j := 0; j < 4; j++ {
		var workers []string
		switch placement {
		case "packed":
			workers = []string{hosts[2*j], hosts[2*j+1]}
		case "spread":
			workers = []string{hosts[j], hosts[j+4]}
		default:
			return nil, fmt.Errorf("unknown placement %q", placement)
		}
		model := ddlt.Uniform(fmt.Sprintf("m%d", j), 3, 4, 1, 0.2, 0.2)
		w, err := ddlt.DPAllReduce{
			Name: fmt.Sprintf("job%d", j), Model: model, Workers: workers,
			BucketCount: 2, Iterations: 2,
		}.Build()
		if err != nil {
			return nil, err
		}
		parts = append(parts, w)
	}
	return ddlt.Merge(parts...)
}

// e16Run executes one placement on one backend.
func e16Run(placement string, net fabric.Fabric) (*sim.Result, *ddlt.Workload, error) {
	w, err := e16Workload(placement)
	if err != nil {
		return nil, nil, err
	}
	simr, err := sim.New(sim.Options{
		Graph: w.Graph, Net: net,
		Scheduler:    sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()},
		Arrangements: w.Arrangements,
	})
	if err != nil {
		return nil, nil, err
	}
	res, err := simr.Run()
	return res, w, err
}

// ExtLeafSpinePlacement (E16) is the placement-sensitivity experiment the
// fabric generalization exists for: the same four jobs run under a
// leaf-local and a core-crossing placement, on both network models. The
// big-switch model prices the two placements identically — every byte meets
// only NICs — so only the leaf-spine backend can expose the cost of
// spreading workers across an oversubscribed core.
func ExtLeafSpinePlacement() (*Report, error) {
	r := &Report{ID: "e16", Title: "Leaf-spine fabric: placement sensitivity under core oversubscription"}
	r.Table = metrics.NewTable("fabric", "placement", "core flows", "sum tardiness", "makespan")

	type outcome struct {
		core     int
		tard     unit.Time
		makespan unit.Time
	}
	results := make(map[string]outcome)
	leaves, err := e16Fabric("leafspine")
	if err != nil {
		return nil, err
	}
	for _, placement := range []string{"packed", "spread"} {
		for _, backend := range []string{"bigswitch", "leafspine"} {
			net, err := e16Fabric(backend)
			if err != nil {
				return nil, err
			}
			res, w, err := e16Run(placement, net)
			if err != nil {
				return nil, err
			}
			// Core crossings are counted on the leaf-spine layout for both
			// backends: the big switch carries the same flows, it just does
			// not price them.
			core := 0
			for _, n := range w.Graph.Nodes() {
				if n.Kind == dag.Comm && leaves.LeafOf(n.Src) != leaves.LeafOf(n.Dst) {
					core++
				}
			}
			results[backend+"/"+placement] = outcome{core: core, tard: res.TotalTardiness(), makespan: res.Makespan}
			r.Table.AddRowf(backend, placement, core, float64(res.TotalTardiness()), float64(res.Makespan))
		}
	}

	bigPacked := results["bigswitch/packed"]
	bigSpread := results["bigswitch/spread"]
	leafPacked := results["leafspine/packed"]
	leafSpread := results["leafspine/spread"]
	r.check("the big-switch model is placement-blind",
		bigPacked.tard == bigSpread.tard && bigPacked.makespan == bigSpread.makespan,
		"packed %v/%v vs spread %v/%v (tardiness/makespan)",
		bigPacked.tard, bigPacked.makespan, bigSpread.tard, bigSpread.makespan)
	r.check("leaf-local placement pays no core tax",
		leafPacked.tard == bigPacked.tard && leafPacked.makespan == bigPacked.makespan,
		"leafspine %v/%v vs bigswitch %v/%v",
		leafPacked.tard, leafPacked.makespan, bigPacked.tard, bigPacked.makespan)
	r.check("core oversubscription separates the placements",
		float64(leafSpread.tard) > float64(leafPacked.tard)+unit.Eps,
		"spread %v vs packed %v sum tardiness", leafSpread.tard, leafPacked.tard)
	r.check("only the core-crossing placement slows down",
		leafSpread.makespan > leafPacked.makespan,
		"spread %v vs packed %v makespan", leafSpread.makespan, leafPacked.makespan)
	r.note("Fabric: 8 hosts (NIC 8), 2/leaf, 2 spines, 4:1 oversubscribed core")
	r.note("(uplinks 2/spine/direction); jobs: 4 x 2-worker dp, 2 iterations. The")
	r.note("placements are isomorphic job-for-job, so every delta is topology.")
	r.note("CLI equivalents: echelon-sim -fabric leafspine:hosts=2,spines=2,oversub=4,")
	r.note("echelon-check -fabric leafspine, echelon-coordinator -fabric leafspine.")
	return r, nil
}
