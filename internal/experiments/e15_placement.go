package experiments

import (
	"fmt"

	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/metrics"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// e15Fabric is the placement arena: 2 racks × 3 hosts with 3:1
// oversubscribed uplinks, small enough that the three policies are forced
// into visibly different bindings. Each rack is a leaf of a one-spine
// network.
func e15Fabric() (*fabric.Network, error) {
	net := fabric.NewNetwork()
	for r := 0; r < 2; r++ {
		rack := fmt.Sprintf("rack%d", r)
		upl := unit.Rate(3 * 6 / 3.0)
		if err := net.AddLeaf(rack, upl, upl); err != nil {
			return nil, err
		}
		for h := 0; h < 3; h++ {
			if err := net.AddHost(fmt.Sprintf("r%dh%d", r, h), rack, 6, 6); err != nil {
				return nil, err
			}
		}
	}
	return net, nil
}

// e15Trace is the arrival-timed submission trace: alternating 2- and
// 3-worker data/tensor-parallel jobs whose all-to-all traffic punishes
// rack-oblivious bindings.
func e15Trace() []struct {
	spec    wire.JobSpec
	arrival unit.Time
} {
	var trace []struct {
		spec    wire.JobSpec
		arrival unit.Time
	}
	for i := 0; i < 6; i++ {
		spec := wire.JobSpec{
			ID: fmt.Sprintf("job%d", i), Paradigm: "dp", Workers: 2 + i%2,
			Layers: 3, Params: 4, Acts: 1, Fwd: 0.2, Bwd: 0.2,
			Buckets: 1, Iterations: 2,
		}
		if i%3 == 2 {
			spec.Paradigm = "tp"
		}
		trace = append(trace, struct {
			spec    wire.JobSpec
			arrival unit.Time
		}{spec, unit.Time(i) * 0.4})
	}
	return trace
}

// e15Place runs the trace through the queue under one placement policy (all
// jobs stay admitted, so later bindings see the accumulated occupancy) and
// returns each job's hosts in admission order.
func e15Place(p queue.Placer, net *fabric.Network) (map[string][]string, error) {
	q := queue.New(queue.Options{Placer: p})
	placements := make(map[string][]string)
	for _, tj := range e15Trace() {
		if _, err := q.Submit("e15", tj.spec, nil, tj.arrival); err != nil {
			return nil, err
		}
		v := queue.NewView(net)
		for _, a := range q.AdmittedList() {
			for _, h := range a.Hosts {
				v.Workers[h]++
			}
		}
		a, err := q.Next(v, tj.arrival)
		if err != nil || a == nil {
			return nil, fmt.Errorf("job %s not admitted: %v", tj.spec.ID, err)
		}
		placements[a.Job.Spec.ID] = a.Hosts
	}
	return placements, nil
}

// e15Workload compiles the trace at the given placements, shifting every
// node by its job's arrival — the same arrival-timed lowering the check
// harness uses.
func e15Workload(placements map[string][]string) (*ddlt.Workload, error) {
	var parts []*ddlt.Workload
	for _, tj := range e15Trace() {
		w, err := queue.Build(tj.spec, placements[tj.spec.ID])
		if err != nil {
			return nil, err
		}
		for _, n := range w.Graph.Nodes() {
			n.NotBefore += tj.arrival
		}
		parts = append(parts, w)
	}
	return ddlt.Merge(parts...)
}

// ExtOnlinePlacement (E15) closes the loop on the online job pipeline: the
// same arrival trace is admitted under each placement policy, executed on
// the two-rack fabric, and compared on cross-rack traffic and Eq. 4 sum of
// tardiness. Placement is the only variable — the scheduler, trace and
// fabric are fixed — so any spread in the results is the policy's doing.
func ExtOnlinePlacement() (*Report, error) {
	r := &Report{ID: "e15", Title: "Online arrivals: placement policy sensitivity"}
	r.Table = metrics.NewTable("policy", "cross-rack flows", "sum tardiness", "makespan")

	type outcome struct {
		cross    int
		tard     unit.Time
		makespan unit.Time
		hosts    string
	}
	results := make(map[string]outcome)
	for _, p := range []queue.Placer{queue.Pack{}, queue.Spread{}, queue.NetAware{}} {
		net, err := e15Fabric()
		if err != nil {
			return nil, err
		}
		placements, err := e15Place(p, net)
		if err != nil {
			return nil, err
		}
		merged, err := e15Workload(placements)
		if err != nil {
			return nil, err
		}
		cross := 0
		for _, n := range merged.Graph.Nodes() {
			if n.Kind != dag.Comm {
				continue
			}
			if net.LeafOf(n.Src) != net.LeafOf(n.Dst) {
				cross++
			}
		}
		simr, err := sim.New(sim.Options{
			Graph: merged.Graph, Net: net,
			Scheduler:    sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()},
			Arrangements: merged.Arrangements,
		})
		if err != nil {
			return nil, err
		}
		out, err := simr.Run()
		if err != nil {
			return nil, err
		}
		sig := ""
		for _, tj := range e15Trace() {
			sig += fmt.Sprintf("%s=%v ", tj.spec.ID, placements[tj.spec.ID])
		}
		results[p.Name()] = outcome{cross: cross, tard: out.TotalTardiness(), makespan: out.Makespan, hosts: sig}
		r.Table.AddRowf(p.Name(), cross, float64(out.TotalTardiness()), float64(out.Makespan))
	}

	pack, spread, netaware := results["pack"], results["spread"], results["netaware"]
	r.check("policies bind the trace differently",
		pack.hosts != spread.hosts && spread.hosts != netaware.hosts,
		"pack=%s spread=%s netaware=%s", pack.hosts, spread.hosts, netaware.hosts)
	r.check("netaware crosses racks no more than spread",
		netaware.cross <= spread.cross, "%d vs %d cross-rack flows", netaware.cross, spread.cross)
	minT, maxT := pack.tard, pack.tard
	for _, o := range []outcome{spread, netaware} {
		if o.tard < minT {
			minT = o.tard
		}
		if o.tard > maxT {
			maxT = o.tard
		}
	}
	r.check("placement measurably moves sum tardiness",
		float64(maxT) > float64(minT)*1.05+unit.Eps,
		"range [%v, %v] across policies", minT, maxT)
	r.check("rack-affine placement beats pack's pile-up",
		float64(netaware.tard) < float64(pack.tard)+unit.Eps,
		"netaware %v vs pack %v", netaware.tard, pack.tard)
	r.note("Fabric: 2 racks x 3 hosts (NIC 6), uplink 6/direction (3:1 oversubscribed).")
	r.note("Trace: 6 dp/tp jobs, 2-3 workers, one arrival every 0.4s; every job stays")
	r.note("admitted, so later placements see the accumulated occupancy. Live-path")
	r.note("equivalents: echelon-coordinator -queue -placement <policy>, with per-policy")
	r.note("tardiness histograms in echelon_job_tardiness_seconds{policy=...}.")
	return r, nil
}
