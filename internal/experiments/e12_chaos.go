package experiments

import (
	"echelonflow/internal/fabric"
	"echelonflow/internal/faults"
	"echelonflow/internal/metrics"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// ExtChaos (E12) replays the canned chaos schedule (faults.Sample — the
// same incident list shipped as examples/faults/chaos.json) against the E10
// pipeline job: a link degradation with recovery, a straggler episode, and
// an agent crash/restart, all inside one GPipe iteration. Each scheduler
// runs the job healthy and under chaos; the checks pin down how gracefully
// each degrades and how quickly the run completes once the last fault has
// cleared. A repeat run must reproduce the chaos results exactly — the
// fault subsystem is deterministic by construction.
func ExtChaos() (*Report, error) {
	r := &Report{ID: "e12", Title: "Chaos replay: canned fault schedule, degradation and recovery"}
	chaos := faults.Sample()
	run := func(s sched.Scheduler, withFaults bool) (*sim.Result, error) {
		w, err := degradeWorkload()
		if err != nil {
			return nil, err
		}
		net := fabric.NewNetwork()
		net.AddUniformHosts(6, w.Hosts...)
		opts := sim.Options{Graph: w.Graph, Net: net, Scheduler: s, Arrangements: w.Arrangements}
		if withFaults {
			opts.CapacityChanges, opts.Dilations, err = faults.CompileSim(chaos, net)
			if err != nil {
				return nil, err
			}
		}
		simr, err := sim.New(opts)
		if err != nil {
			return nil, err
		}
		return simr.Run()
	}

	r.Table = metrics.NewTable("scheduler", "healthy makespan", "chaos makespan",
		"healthy tardiness", "chaos tardiness", "recovery time")
	type outcome struct {
		healthy, chaos     unit.Time
		healthyTd, chaosTd unit.Time
		recovery           unit.Time
	}
	outs := map[string]outcome{}
	schedulers := []sched.Scheduler{
		sched.EchelonMADD{Backfill: true},
		sched.CoflowMADD{Backfill: true},
		sched.Fair{},
	}
	for _, s := range schedulers {
		healthy, err := run(s, false)
		if err != nil {
			return nil, err
		}
		faulted, err := run(s, true)
		if err != nil {
			return nil, err
		}
		o := outcome{
			healthy: healthy.Makespan, chaos: faulted.Makespan,
			healthyTd: healthy.TotalTardiness(), chaosTd: faulted.TotalTardiness(),
			recovery: faulted.Makespan - chaos.End(),
		}
		outs[s.Name()] = o
		r.Table.AddRowf(s.Name(), float64(o.healthy), float64(o.chaos),
			float64(o.healthyTd), float64(o.chaosTd), float64(o.recovery))
	}

	e, c := outs["echelon-madd+bf"], outs["coflow-madd+bf"]
	for _, s := range schedulers { // in list order: the checks print deterministically
		name, o := s.Name(), outs[s.Name()]
		r.check("chaos never beats the healthy run ("+name+")",
			o.chaos >= o.healthy-unit.Time(unit.Eps) && o.chaosTd >= o.healthyTd-unit.Time(unit.Eps),
			"makespan %v vs %v, tardiness %v vs %v", o.chaos, o.healthy, o.chaosTd, o.healthyTd)
		r.check("run completes after the last fault clears ("+name+")",
			o.recovery > 0, "recovery time %v past the schedule end t=%v", o.recovery, chaos.End())
	}
	r.check("echelon degrades more gracefully than coflow under chaos",
		e.chaosTd < c.chaosTd && e.chaos <= c.chaos*1.0001,
		"tardiness %v vs %v, makespan %v vs %v", e.chaosTd, c.chaosTd, e.chaos, c.chaos)
	r.check("echelon recovers faster than coflow",
		e.recovery < c.recovery, "recovery %v vs %v", e.recovery, c.recovery)

	// Determinism: an identical replay must reproduce the chaos run
	// byte-for-byte, down to every flow's finish time.
	again, err := run(sched.EchelonMADD{Backfill: true}, true)
	if err != nil {
		return nil, err
	}
	identical := again.Makespan == e.chaos && again.TotalTardiness() == e.chaosTd
	first, _ := run(sched.EchelonMADD{Backfill: true}, true)
	if identical && first != nil {
		for id, rec := range first.Flows {
			if other, ok := again.Flows[id]; !ok || other.Finish != rec.Finish {
				identical = false
				break
			}
		}
	}
	r.check("chaos replay is deterministic",
		identical, "repeat run makespan %v vs %v", again.Makespan, e.chaos)

	r.note("Chaos schedule: s0's NIC 6 -> 2 B/s over t=[3,8]; s2 computes 1.5x slower over t=[5,10]; agent a1 (host s1) crashes at t=12, restarts at t=13.")
	r.note("Recovery time = chaos makespan minus the last fault event (t=%v).", chaos.End())
	return r, nil
}
