package experiments

import (
	"fmt"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/metrics"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
)

// CaseStudies verifies the §4 case-study arrangement functions against
// their closed forms: Eq. 5 for the Coflow-compliant paradigms, Eq. 6 for
// pipeline parallelism, Eq. 7 for FSDP — as declared by the workload
// compilers.
func CaseStudies() (*Report, error) {
	r := &Report{ID: "cases", Title: "Case-study arrangement functions (paper §4)"}
	r.Table = metrics.NewTable("paradigm", "group", "arrangement", "d_0..d_3 at r=10")

	probes := []struct {
		paradigm, group string
		wantKind        string
	}{
		{"DP-AllReduce", "dp/it0/ar0", "coflow"},
		{"DP-PS", "ps/it0/push0", "coflow"},
		{"PP", "pp/it0/fwd0", "pipeline"},
		{"TP", "tp/it0/as0", "coflow"},
		{"FSDP", "fsdp/it0/ag", "staged"},
	}
	byName := map[string]paradigm{}
	for _, p := range standardParadigms() {
		byName[p.name] = p
	}
	for _, probe := range probes {
		w, err := byName[probe.paradigm].build()
		if err != nil {
			return nil, err
		}
		arr, ok := w.Arrangements[probe.group]
		if !ok {
			return nil, fmt.Errorf("experiments: %s has no group %q", probe.paradigm, probe.group)
		}
		var ds string
		for s := 0; s < 4; s++ {
			ds += arr.Deadline(s, 10).String() + " "
		}
		r.Table.AddRow(probe.paradigm, probe.group, arr.Name(), ds)
		r.check(probe.paradigm+" arrangement kind", arr.Name() == probe.wantKind,
			"%s (want %s)", arr.Name(), probe.wantKind)

		switch probe.wantKind {
		case "coflow":
			// Eq. 5: d_j = r.
			ok := arr.Deadline(0, 10).ApproxEq(10) && arr.Deadline(3, 10).ApproxEq(10)
			r.check(probe.paradigm+" matches Eq. 5", ok, "all deadlines = r")
		case "pipeline":
			// Eq. 6: d_j = r + j*T with T = consuming stage's time (1).
			p := arr.(core.Pipeline)
			ok := arr.Deadline(2, 10).ApproxEq(10 + 2*p.T)
			r.check(probe.paradigm+" matches Eq. 6", ok, "d_j = r + j*T, T = %v", p.T)
		case "staged":
			// Eq. 7 for a uniform model (fwd 0.75, bwd 1, 4 layers).
			eq7, err := core.NewFSDP(4, 0.75, 1)
			if err != nil {
				return nil, err
			}
			ok := true
			for s := 0; s < 8; s++ {
				if !arr.Deadline(s, 10).ApproxEq(eq7.Deadline(s, 10)) {
					ok = false
				}
			}
			r.check(probe.paradigm+" matches Eq. 7", ok, "2n staged deadlines from T_fwd/T_bwd")
		}
	}
	return r, nil
}

// Property1: EchelonFlow scheduling minimizes completion times of the
// popular paradigms — across every scheduler in the suite, EchelonMADD with
// backfill attains the best (or tied-best) makespan on each Table 1
// paradigm.
func Property1() (*Report, error) {
	r := &Report{ID: "prop1", Title: "Property 1: paradigm completion-time optimality"}
	schedulers := []sched.Scheduler{
		sched.EchelonMADD{Backfill: true},
		sched.CoflowMADD{Backfill: true},
		sched.Fair{},
		sched.SRPT{},
		sched.FIFO{},
		sched.EDF{},
	}
	r.Table = metrics.NewTable(append([]string{"paradigm"}, schedNames(schedulers)...)...)
	for _, p := range standardParadigms() {
		times := make([]unit.Time, len(schedulers))
		cells := make([]interface{}, 0, len(schedulers)+1)
		cells = append(cells, p.name)
		for i, s := range schedulers {
			_, res, err := runParadigm(p, s)
			if err != nil {
				return nil, err
			}
			times[i] = res.Makespan
			cells = append(cells, float64(res.Makespan))
		}
		r.Table.AddRowf(cells...)
		best := times[0]
		for _, t := range times[1:] {
			if t < best {
				best = t
			}
		}
		// Allow 1% heuristic slack.
		r.check(p.name+": echelon attains the best makespan", float64(times[0]) <= float64(best)*1.01,
			"echelon %v vs best %v", times[0], best)
	}
	return r, nil
}

func schedNames(ss []sched.Scheduler) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name()
	}
	return out
}

// Property2: a Coflow presented as an EchelonFlow behaves identically under
// EchelonFlow scheduling and Coflow scheduling — same rates, same
// completion time — and minimizing tardiness equals minimizing CCT.
func Property2() (*Report, error) {
	r := &Report{ID: "prop2", Title: "Property 2: Coflow ⊂ EchelonFlow"}
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b", "c")
	g, err := core.NewCoflow("c1",
		&core.Flow{ID: "x", Src: "a", Dst: "b", Size: 2},
		&core.Flow{ID: "y", Src: "c", Dst: "b", Size: 1},
		&core.Flow{ID: "z", Src: "a", Dst: "c", Size: 1},
	)
	if err != nil {
		return nil, err
	}
	snap := &sched.Snapshot{
		Now:    0,
		Groups: map[string]*sched.GroupState{"c1": {Group: g}},
	}
	for _, f := range g.Flows {
		snap.Flows = append(snap.Flows, &sched.FlowState{Flow: f, GroupID: "c1", Remaining: f.Size})
	}
	echelonRates, err := (sched.EchelonMADD{}).Schedule(snap, net)
	if err != nil {
		return nil, err
	}
	coflowRates, err := (sched.CoflowMADD{}).Schedule(snap, net)
	if err != nil {
		return nil, err
	}
	r.Table = metrics.NewTable("flow", "echelon rate", "coflow (MADD) rate")
	same := true
	for _, f := range g.Flows {
		a, b := echelonRates[f.ID], coflowRates[f.ID]
		r.Table.AddRowf(f.ID, float64(a), float64(b))
		if diff := float64(a - b); diff > 1e-6 || diff < -1e-6 {
			same = false
		}
	}
	r.check("EchelonMADD equals MADD on a Coflow", same, "identical minimal rates")

	// Tardiness == CCT - r for any coflow outcome.
	out := core.Outcome{Group: g, Reference: 0, Finish: map[string]unit.Time{"x": 3, "y": 3, "z": 3}}
	tard, err1 := out.Tardiness()
	cct, err2 := out.CompletionTime()
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("outcome: %v %v", err1, err2)
	}
	r.check("max tardiness equals CCT - r", tard.ApproxEq(cct-0),
		"tardiness %v, CCT %v, r 0", tard, cct)
	r.note("IsCoflow(c1) = %v; the Coflow objective is the Eq. 5 special case of Eq. 3.", g.IsCoflow())
	return r, nil
}

// Property4: the EchelonMADD adaptation stays in the same complexity class
// as MADD — measured decision latency grows comparably with flow count
// (the binary search adds a logarithmic factor).
func Property4() (*Report, error) {
	r := &Report{ID: "prop4", Title: "Property 4: scheduler cost scaling"}
	r.Table = metrics.NewTable("flows", "groups", "coflow-madd (ms)", "echelon-madd (ms)", "ratio")
	sizes := []int{8, 32, 128, 512}
	coflowT := map[int]float64{}
	echelonT := map[int]float64{}
	for _, n := range sizes {
		snap, net := syntheticSnapshot(n, 8)
		c := timeSchedule(sched.CoflowMADD{}, snap, net)
		e := timeSchedule(sched.EchelonMADD{}, snap, net)
		coflowT[n] = c.Seconds()
		echelonT[n] = e.Seconds()
		r.Table.AddRowf(n, 8, c.Seconds()*1e3, e.Seconds()*1e3, e.Seconds()/c.Seconds())
	}
	// Same complexity class means comparable *growth* with n (absolute
	// ratios depend on constants and machine load): going 32 -> 512 flows,
	// EchelonMADD's slowdown factor must stay within a generous multiple of
	// CoflowMADD's — the time-varying profiles add a log-ish factor, not a
	// polynomial one.
	eg := echelonT[512] / echelonT[32]
	cg := coflowT[512] / coflowT[32]
	r.check("echelon growth within 16x of coflow growth (32 -> 512 flows)",
		eg <= cg*16,
		"echelon grew %.1fx, coflow %.1fx", eg, cg)
	return r, nil
}

// syntheticSnapshot builds n flows spread over g pipeline groups on an
// 8-host fabric.
func syntheticSnapshot(n, groups int) (*sched.Snapshot, *fabric.Network) {
	net := fabric.NewNetwork()
	hosts := make([]string, 8)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i)
	}
	net.AddUniformHosts(10, hosts...)
	snap := &sched.Snapshot{Now: 0, Groups: map[string]*sched.GroupState{}}
	flowsPer := n / groups
	if flowsPer < 1 {
		flowsPer = 1
	}
	count := 0
	for gi := 0; gi < groups && count < n; gi++ {
		gid := fmt.Sprintf("g%d", gi)
		var flows []*core.Flow
		for fi := 0; fi < flowsPer && count < n; fi++ {
			flows = append(flows, &core.Flow{
				ID:  fmt.Sprintf("%s-f%d", gid, fi),
				Src: hosts[(gi+fi)%8], Dst: hosts[(gi+fi+1)%8],
				Size: unit.Bytes(1 + fi%5), Stage: fi,
			})
			count++
		}
		g, err := core.New(gid, core.Pipeline{T: 0.5}, flows...)
		if err != nil {
			panic(err)
		}
		snap.Groups[gid] = &sched.GroupState{Group: g}
		for _, f := range flows {
			snap.Flows = append(snap.Flows, &sched.FlowState{Flow: f, GroupID: gid, Remaining: f.Size})
		}
	}
	return snap, net
}

// timeSchedule measures one scheduler's decision latency as the best of 15
// calls: the small sizes take tens of microseconds, where three samples taken
// while other packages' tests share the CPU were off by 2-3x.
func timeSchedule(s sched.Scheduler, snap *sched.Snapshot, net *fabric.Network) time.Duration {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < 15; i++ {
		start := time.Now()
		if _, err := s.Schedule(snap, net); err != nil {
			panic(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
