package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"echelonflow/internal/coordinator"
	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/metrics"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// relClose reports whether a and b agree within a relative tolerance.
func relClose(a, b, tol float64) bool {
	denom := math.Max(math.Abs(a), math.Abs(b))
	if denom < unit.Eps {
		return true
	}
	return math.Abs(a-b)/denom <= tol
}

// multiJobWorkload merges j pipeline jobs that share one stage-pair fabric,
// offset in start time via NotBefore on their head computes.
func multiJobWorkload(jobs int) (*ddlt.Workload, error) {
	var ws []*ddlt.Workload
	for j := 0; j < jobs; j++ {
		w, err := ddlt.PipelineGPipe{
			Name:  fmt.Sprintf("job%d", j),
			Model: ddlt.Uniform("m", 4, 2, 5, 1, 1),
			Workers: []string{
				fmt.Sprintf("j%d-s0", j), "shared-s1", // all jobs funnel into one hot worker pair
			},
			MicroBatches: 3, Iterations: 1,
		}.Build()
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ddlt.Merge(ws...)
}

// ExtMultiJob (E1) measures the Eq. 4 objective — the sum of EchelonFlow
// tardiness across competing jobs — for each scheduler, sweeping job count,
// plus the inter-group ordering ablation.
func ExtMultiJob() (*Report, error) {
	r := &Report{ID: "e1", Title: "Multi-job sum of tardiness (Eq. 4)"}
	schedulers := []sched.Scheduler{
		sched.EchelonMADD{Backfill: true},
		sched.EchelonMADD{Order: sched.LargestTardinessFirst, Backfill: true},
		sched.CoflowMADD{Backfill: true},
		sched.Fair{},
		sched.SRPT{},
	}
	r.Table = metrics.NewTable(append([]string{"jobs"}, schedNames(schedulers)...)...)
	for _, jobs := range []int{2, 4, 6} {
		cells := []interface{}{jobs}
		sums := make([]unit.Time, len(schedulers))
		for i, s := range schedulers {
			w, err := multiJobWorkload(jobs)
			if err != nil {
				return nil, err
			}
			res, err := simulate(w, 4, s)
			if err != nil {
				return nil, err
			}
			sums[i] = res.TotalTardiness()
			cells = append(cells, float64(sums[i]))
		}
		r.Table.AddRowf(cells...)
		best := sums[0]
		for _, x := range sums[1:] {
			if x < best {
				best = x
			}
		}
		r.check(fmt.Sprintf("%d jobs: echelon-madd best on Eq. 4", jobs),
			float64(sums[0]) <= float64(best)*1.01+unit.Eps,
			"echelon %v vs best %v", sums[0], best)
	}
	r.note("Ordering ablation: column 2 ranks most-tardy-first instead of the SEBF-analogue default.")
	return r, nil
}

// ExtBandwidthSweep (E2) sweeps link capacity for a fixed pipeline job: at
// low bandwidth the network dominates and scheduler choice matters; at high
// bandwidth all schedulers converge to the compute-bound time (the
// crossover). Also ablates MADD backfilling.
func ExtBandwidthSweep() (*Report, error) {
	r := &Report{ID: "e2", Title: "Bandwidth sweep: where scheduling matters"}
	schedulers := []sched.Scheduler{
		sched.EchelonMADD{Backfill: true},
		sched.EchelonMADD{}, // backfill ablation
		sched.CoflowMADD{Backfill: true},
		sched.Fair{},
	}
	r.Table = metrics.NewTable(append([]string{"capacity"}, schedNames(schedulers)...)...)
	build := func() (*ddlt.Workload, error) {
		return ddlt.PipelineGPipe{
			Name: "pp", Model: ddlt.Uniform("m", 4, 2, 6, 1, 1),
			Workers: []string{"s0", "s1", "s2", "s3"}, MicroBatches: 4, Iterations: 1,
		}.Build()
	}
	caps := []unit.Rate{2, 4, 8, 16, 64, 256}
	makespans := make(map[string][]unit.Time)
	for _, c := range caps {
		cells := []interface{}{float64(c)}
		for _, s := range schedulers {
			w, err := build()
			if err != nil {
				return nil, err
			}
			res, err := simulate(w, c, s)
			if err != nil {
				return nil, err
			}
			makespans[s.Name()] = append(makespans[s.Name()], res.Makespan)
			cells = append(cells, float64(res.Makespan))
		}
		r.Table.AddRowf(cells...)
	}
	// Shape checks: monotone improvement with bandwidth, convergence at the
	// compute-bound end, and echelon <= coflow at the contended end.
	e := makespans["echelon-madd+bf"]
	c := makespans["coflow-madd+bf"]
	f := makespans["fair"]
	r.check("echelon beats or ties coflow when contended", e[0] <= c[0]*1.0001 && e[1] <= c[1]*1.0001,
		"cap=2: %v vs %v; cap=4: %v vs %v", e[0], c[0], e[1], c[1])
	converged := relClose(float64(e[len(e)-1]), float64(f[len(f)-1]), 0.02) &&
		relClose(float64(e[len(e)-1]), float64(c[len(c)-1]), 0.02)
	r.check("schedulers converge when compute-bound", converged,
		"cap=256: echelon %v, coflow %v, fair %v", e[len(e)-1], c[len(c)-1], f[len(f)-1])
	mono := true
	for i := 1; i < len(e); i++ {
		if e[i] > e[i-1]*1.0001 {
			mono = false
		}
	}
	r.check("more bandwidth never hurts (echelon)", mono, "makespans %v", e)
	bf := makespans["echelon-madd+bf"]
	nobf := makespans["echelon-madd"]
	worse := 0
	for i := range bf {
		if nobf[i] > bf[i]*1.0001 {
			worse++
		}
	}
	r.note("Backfill ablation: unbackfilled EchelonMADD is slower at %d of %d capacities (work conservation matters for single jobs).", worse, len(bf))
	return r, nil
}

// ExtDelayRecovery (E3) injects a stall into a pipeline and compares how
// the schedulers restore the echelon formation: the tardiness objective
// keeps per-flow tardiness uniform after the delay, while Coflow scheduling
// collapses the staggering entirely.
func ExtDelayRecovery() (*Report, error) {
	r := &Report{ID: "e3", Title: "Arrangement recovery after an injected delay"}
	const T = unit.Time(2)
	build := func() (*dag.Graph, *fabric.Network, map[string]core.Arrangement) {
		g := dag.New()
		for i := 0; i < 4; i++ {
			release := unit.Time(i) * T
			if i == 1 {
				release += 3 // the injected stall: flow 1 is late
			}
			g.MustAdd(&dag.Node{
				ID: fmt.Sprintf("f%d", i), Kind: dag.Comm,
				Src: "w1", Dst: "w2", Size: 1.5,
				Group: "pp", Stage: i, NotBefore: release,
			})
		}
		net := fabric.NewNetwork()
		net.AddUniformHosts(1, "w1", "w2")
		return g, net, map[string]core.Arrangement{"pp": core.Pipeline{T: T}}
	}
	run := func(s sched.Scheduler) (*sim.Result, error) {
		g, net, arrs := build()
		simr, err := sim.New(sim.Options{Graph: g, Net: net, Scheduler: s, Arrangements: arrs})
		if err != nil {
			return nil, err
		}
		return simr.Run()
	}
	r.Table = metrics.NewTable("scheduler", "f0 tard", "f1 tard", "f2 tard", "f3 tard", "spread", "group tard")
	type outcome struct {
		spread, group unit.Time
	}
	outs := map[string]outcome{}
	for _, s := range []sched.Scheduler{sched.EchelonMADD{}, sched.CoflowMADD{}, sched.Fair{}} {
		res, err := run(s)
		if err != nil {
			return nil, err
		}
		var tards []unit.Time
		for i := 0; i < 4; i++ {
			tards = append(tards, res.Flows[fmt.Sprintf("f%d", i)].Tardiness())
		}
		// Spread over the flows after the stall (the ones that can recover).
		min, max := tards[1], tards[1]
		for _, x := range tards[1:] {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		outs[s.Name()] = outcome{spread: max - min, group: res.Groups["pp"].Tardiness}
		r.Table.AddRowf(s.Name(), float64(tards[0]), float64(tards[1]), float64(tards[2]),
			float64(tards[3]), float64(max-min), float64(res.Groups["pp"].Tardiness))
	}
	r.check("echelon restores uniform tardiness after the stall",
		outs["echelon-madd"].spread.ApproxEq(0),
		"post-stall tardiness spread %v", outs["echelon-madd"].spread)
	r.check("echelon bounds group tardiness at the stall, not beyond",
		outs["echelon-madd"].group <= outs["coflow-madd"].group+unit.Time(unit.Eps),
		"echelon %v vs coflow %v", outs["echelon-madd"].group, outs["coflow-madd"].group)
	r.note("Tardiness is measured against ideal finish times derived from the reference time (Eq. 1),")
	r.note("so later EchelonFlows recover the arrangement — the §3.2 argument for tardiness over FCT.")
	return r, nil
}

// ExtWeightedTardiness (E4) gives one of two identical competing jobs a
// higher weight under the weighted Eq. 4 objective and verifies the
// weighted scheduler shifts tardiness onto the lighter job.
func ExtWeightedTardiness() (*Report, error) {
	r := &Report{ID: "e4", Title: "Weighted tardiness (Eq. 4, weighted variant)"}
	// A snapshot-level comparison exercises the weighted ordering directly:
	// two identical pipeline groups contend for one destination port.
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "src0", "src1", "dst")
	mk := func(id string, weight float64, srcHost string) (*core.EchelonFlow, []*sched.FlowState) {
		var flows []*core.Flow
		for i := 0; i < 3; i++ {
			flows = append(flows, &core.Flow{ID: fmt.Sprintf("%s-f%d", id, i), Src: srcHost, Dst: "dst", Size: 2, Stage: i})
		}
		g, err := core.New(id, core.Pipeline{T: 1}, flows...)
		if err != nil {
			panic(err)
		}
		g.Weight = weight
		var fss []*sched.FlowState
		for _, f := range flows {
			fss = append(fss, &sched.FlowState{Flow: f, GroupID: id, Remaining: f.Size})
		}
		return g, fss
	}
	// Group IDs chosen so the unweighted tie-break (lexicographic) favours
	// the LIGHT group: only the weight can flip the decision.
	heavy, heavyFlows := mk("z-heavy", 4, "src0")
	light, lightFlows := mk("a-light", 1, "src1")
	snap := &sched.Snapshot{Now: 0, Groups: map[string]*sched.GroupState{
		"z-heavy": {Group: heavy}, "a-light": {Group: light},
	}}
	snap.Flows = append(append([]*sched.FlowState{}, heavyFlows...), lightFlows...)

	r.Table = metrics.NewTable("scheduler", "heavy head rate", "light head rate")
	plain, err := (sched.EchelonMADD{}).Schedule(snap, net)
	if err != nil {
		return nil, err
	}
	weightedRates, err := (sched.EchelonMADD{Weighted: true}).Schedule(snap, net)
	if err != nil {
		return nil, err
	}
	r.Table.AddRowf("echelon-madd", float64(plain["z-heavy-f0"]), float64(plain["a-light-f0"]))
	r.Table.AddRowf("echelon-madd-w", float64(weightedRates["z-heavy-f0"]), float64(weightedRates["a-light-f0"]))
	r.check("unweighted tie-break favours the light group",
		plain["a-light-f0"] > plain["z-heavy-f0"],
		"light %v vs heavy %v", plain["a-light-f0"], plain["z-heavy-f0"])
	r.check("weighting flips priority to the heavy group",
		weightedRates["z-heavy-f0"] > weightedRates["a-light-f0"],
		"heavy %v vs light %v", weightedRates["z-heavy-f0"], weightedRates["a-light-f0"])
	r.note("Both jobs contend for dst ingress; the weighted order serves the weight-4 group first.")
	return r, nil
}

// ExtMixedParadigms (E5) is the paper's §1 motivation: drastically
// different paradigms (a pipeline job and a DP job) share a fragmented
// cluster, and only a global, arrangement-aware scheduler serves both.
func ExtMixedParadigms() (*Report, error) {
	r := &Report{ID: "e5", Title: "Mixed paradigms on a shared, fragmented cluster"}
	// Four hosts with two GPUs each behind an 8 B/s NIC. Every GPU slot
	// n<i>/g<g> is its own endpoint with half its host's NIC, so co-located
	// workers contend for host bandwidth. Both jobs are spread one slot per
	// host, the fragmenting pattern of a busy cluster: pp takes each host's
	// g0 and dp its g1, so each spans 4 hosts where 2 would do.
	net := fabric.NewNetwork()
	var ppSlots, dpSlots []string
	for i := 0; i < 4; i++ {
		for g := 0; g < 2; g++ {
			if err := net.AddHost(fmt.Sprintf("n%d/g%d", i, g), "", 4, 4); err != nil {
				return nil, err
			}
		}
		ppSlots = append(ppSlots, fmt.Sprintf("n%d/g0", i))
		dpSlots = append(dpSlots, fmt.Sprintf("n%d/g1", i))
	}
	ppJob := ddlt.PipelineGPipe{
		Name: "pp", Model: ddlt.Uniform("m", 4, 2, 5, 1, 1),
		Workers: ppSlots, MicroBatches: 4, Iterations: 1,
	}
	dpJob := ddlt.DPAllReduce{
		Name: "dp", Model: ddlt.Uniform("m", 4, 8, 1, 0.5, 0.5),
		Workers: dpSlots, BucketCount: 2, Iterations: 1,
	}
	schedulers := []sched.Scheduler{
		sched.EchelonMADD{Backfill: true},
		sched.CoflowMADD{Backfill: true},
		sched.Fair{},
	}
	r.Table = metrics.NewTable("scheduler", "pp makespan", "dp makespan", "sum tardiness")
	results := map[string][3]float64{}
	for _, s := range schedulers {
		ppW, err := ppJob.Build()
		if err != nil {
			return nil, err
		}
		dpW, err := dpJob.Build()
		if err != nil {
			return nil, err
		}
		merged, err := ddlt.Merge(ppW, dpW)
		if err != nil {
			return nil, err
		}
		simr, err := sim.New(sim.Options{
			Graph: merged.Graph, Net: net, Scheduler: s, Arrangements: merged.Arrangements,
		})
		if err != nil {
			return nil, err
		}
		res, err := simr.Run()
		if err != nil {
			return nil, err
		}
		ppSpan := jobMakespan(res, "pp/")
		dpSpan := jobMakespan(res, "dp/")
		results[s.Name()] = [3]float64{float64(ppSpan), float64(dpSpan), float64(res.TotalTardiness())}
		r.Table.AddRowf(s.Name(), float64(ppSpan), float64(dpSpan), float64(res.TotalTardiness()))
	}
	e, c := results["echelon-madd+bf"], results["coflow-madd+bf"]
	r.check("echelon sum tardiness <= coflow", e[2] <= c[2]*1.01+unit.Eps,
		"%.4g vs %.4g", e[2], c[2])
	r.check("echelon serves both paradigms", e[0] <= c[0]*1.05 && e[1] <= c[1]*1.05,
		"pp %.4g vs %.4g; dp %.4g vs %.4g", e[0], c[0], e[1], c[1])
	r.note("Placement: both jobs Spread across 4 hosts x 2 GPUs (fragmentation 2 and 2).")
	return r, nil
}

// jobMakespan returns the latest finish among a job's nodes.
func jobMakespan(res *sim.Result, prefix string) unit.Time {
	var last unit.Time
	for id, span := range res.Tasks {
		if strings.HasPrefix(id, prefix) && span.End > last {
			last = span.End
		}
	}
	for id, rec := range res.Flows {
		if strings.HasPrefix(id, prefix) && rec.Finish > last {
			last = rec.Finish
		}
	}
	return last
}

// ExtCoordinatorLatency (E6) measures the in-process Coordinator decision
// path — the practicality question of §5. It reports per-event scheduling
// latency percentiles as group count grows.
func ExtCoordinatorLatency() (*Report, error) {
	r := &Report{ID: "e6", Title: "Coordinator decision latency"}
	r.Table = metrics.NewTable("groups", "flows", "p50 (ms)", "p99 (ms)", "max (ms)")
	for _, groups := range []int{4, 16, 64} {
		lat, flows, err := coordinatorLatency(groups)
		if err != nil {
			return nil, err
		}
		r.Table.AddRowf(groups, flows,
			metrics.Percentile(lat, 50)*1e3, metrics.Percentile(lat, 99)*1e3,
			metrics.Summarize(lat).Max*1e3)
		r.check(fmt.Sprintf("%d groups: p99 under 250ms", groups),
			metrics.Percentile(lat, 99) < 0.25,
			"p99 %.2fms", metrics.Percentile(lat, 99)*1e3)
	}
	r.note("Latency covers advance + reschedule + allocation bookkeeping per flow event.")
	return r, nil
}

// coordinatorLatency drives an in-process coordinator through release
// events and measures each decision.
func coordinatorLatency(groups int) ([]float64, int, error) {
	net := fabric.NewNetwork()
	hosts := make([]string, 8)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i)
		if err := net.AddHost(hosts[i], "", 100, 100); err != nil {
			return nil, 0, err
		}
	}
	coord, err := coordinator.New(coordinator.Options{
		Net:       net,
		Scheduler: sched.EchelonMADD{Backfill: true},
		Logf:      func(string, ...interface{}) {},
	})
	if err != nil {
		return nil, 0, err
	}
	flowsPer := 4
	var events []wire.FlowEvent
	for gi := 0; gi < groups; gi++ {
		gid := fmt.Sprintf("g%d", gi)
		var flows []*core.Flow
		for fi := 0; fi < flowsPer; fi++ {
			flows = append(flows, &core.Flow{
				ID:  fmt.Sprintf("%s-f%d", gid, fi),
				Src: hosts[(gi+fi)%8], Dst: hosts[(gi+fi+1)%8],
				Size: 50, Stage: fi,
			})
		}
		g, err := core.New(gid, core.Pipeline{T: 0.1}, flows...)
		if err != nil {
			return nil, 0, err
		}
		if err := coord.RegisterGroup("bench", g); err != nil {
			return nil, 0, err
		}
		for _, f := range flows {
			events = append(events, wire.FlowEvent{GroupID: gid, FlowID: f.ID, Event: wire.EventReleased})
		}
	}
	var latencies []float64
	for _, ev := range events {
		start := time.Now()
		if _, err := coord.FlowEvent(ev); err != nil {
			return nil, 0, err
		}
		latencies = append(latencies, time.Since(start).Seconds())
	}
	return latencies, groups * flowsPer, nil
}
