package experiments

import (
	"fmt"
	"sort"

	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/metrics"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// coflowBatch builds K classic shuffle coflows: each fans in from all
// source workers to its own reducer, with sizes spread across a 6x range —
// the traditional cluster workload (MapReduce/Spark shuffles) of the Coflow
// literature.
func coflowBatch() (*dag.Graph, *fabric.Network, map[string]core.Arrangement, []string) {
	const srcs, coflows = 4, 6
	g := dag.New()
	net := fabric.NewNetwork()
	var hosts []string
	for i := 0; i < srcs; i++ {
		hosts = append(hosts, fmt.Sprintf("m%d", i))
		// Mapper egress (10) is the contended resource...
		if err := net.AddHost(hosts[i], "", 10, 10); err != nil {
			panic(err)
		}
	}
	for k := 0; k < coflows; k++ {
		// ...while reducers have headroom (40), so inter-coflow ordering
		// on the shared mappers decides completion times.
		if err := net.AddHost(fmt.Sprintf("r%d", k), "", 40, 40); err != nil {
			panic(err)
		}
	}

	arrs := map[string]core.Arrangement{}
	var groups []string
	for k := 0; k < coflows; k++ {
		gid := fmt.Sprintf("shuffle%d", k)
		groups = append(groups, gid)
		arrs[gid] = core.Coflow{}
		for i := 0; i < srcs; i++ {
			// Sizes grow with k: coflow 0 is small (SEBF should favor it),
			// coflow 5 is 6x larger; per-mapper skew varies with i.
			size := unit.Bytes(float64(k+1) * (2 + float64(i%3)))
			g.MustAdd(&dag.Node{
				ID: fmt.Sprintf("%s/m%d", gid, i), Kind: dag.Comm,
				Src: hosts[i], Dst: fmt.Sprintf("r%d", k), Size: size, Group: gid,
			})
		}
	}
	return g, net, arrs, groups
}

// ExtCoflowBatch (E8) exercises the Property-2 compatibility claim in
// practice: on a batch of classic shuffle Coflows, EchelonFlow scheduling
// must match Coflow scheduling's average CCT (it degenerates to SEBF+MADD)
// and beat group-oblivious fair sharing — "EchelonFlow [is] compatible with
// traditional cluster applications covered by Coflow" (§3.3).
func ExtCoflowBatch() (*Report, error) {
	r := &Report{ID: "e8", Title: "Traditional Coflow batch (Property 2 in practice)"}
	schedulers := []sched.Scheduler{
		sched.EchelonMADD{Backfill: true},
		sched.CoflowMADD{Backfill: true},
		sched.Fair{},
		sched.SRPT{},
	}
	r.Table = metrics.NewTable("scheduler", "avg CCT", "p95 CCT", "makespan")
	avg := map[string]float64{}
	for _, s := range schedulers {
		g, net, arrs, groups := coflowBatch()
		simr, err := sim.New(sim.Options{Graph: g, Net: net, Scheduler: s, Arrangements: arrs})
		if err != nil {
			return nil, err
		}
		res, err := simr.Run()
		if err != nil {
			return nil, err
		}
		var ccts []float64
		for _, gid := range groups {
			gr := res.Groups[gid]
			ccts = append(ccts, float64(gr.CompletionTime-gr.Reference))
		}
		sort.Float64s(ccts)
		a := metrics.Summarize(ccts).Mean
		avg[s.Name()] = a
		r.Table.AddRowf(s.Name(), a, metrics.Percentile(ccts, 95), float64(res.Makespan))
	}
	r.check("echelon matches coflow scheduling on pure Coflows",
		relClose(avg["echelon-madd+bf"], avg["coflow-madd+bf"], 0.02),
		"avg CCT %.4g vs %.4g", avg["echelon-madd+bf"], avg["coflow-madd+bf"])
	r.check("echelon beats fair sharing on average CCT",
		avg["echelon-madd+bf"] < avg["fair"],
		"avg CCT %.4g vs fair %.4g", avg["echelon-madd+bf"], avg["fair"])
	r.note("6 shuffle coflows (4 mappers each, 6x size spread) contending on mapper egress; SEBF-ordered")
	r.note("MADD — which EchelonMADD degenerates to on Coflow arrangements — favours small coflows.")
	return r, nil
}
