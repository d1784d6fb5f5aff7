package experiments

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/coordinator"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/faults"
	"echelonflow/internal/metrics"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// e13Groups builds the two pipeline jobs the scenario schedules. Job A and
// job B never share a NIC direction after the crash window, so the one flow
// still running at the comparison point has a capacity-limited rate that
// must match across runs exactly.
func e13Groups() (a, b *core.EchelonFlow, err error) {
	a, err = core.New("jobA/pp", core.Pipeline{T: 2},
		&core.Flow{ID: "a0", Src: "w1", Dst: "w2", Size: 20, Stage: 0},
		&core.Flow{ID: "a1", Src: "w2", Dst: "w3", Size: 20, Stage: 1})
	if err != nil {
		return nil, nil, err
	}
	b, err = core.New("jobB/pp", core.Pipeline{T: 2},
		&core.Flow{ID: "b0", Src: "w1", Dst: "w3", Size: 30, Stage: 0},
		&core.Flow{ID: "b1", Src: "w3", Dst: "w2", Size: 40, Stage: 1})
	if err != nil {
		return nil, nil, err
	}
	return a, b, nil
}

// e13Result captures everything the golden/crash comparison checks.
type e13Result struct {
	refA, tardA unit.Time
	refB, tardB unit.Time
	total       unit.Time
	midRates    map[string]unit.Rate // allocations at t=9 (b1 in flight)

	// Crash-run-only observations.
	parkedAfterRestore bool
	revivedAfterRejoin bool
	journalFiles       int
}

// e13Run drives the scripted timeline against one coordinator. With dir
// empty the run is journal-free (the no-crash golden); otherwise the
// coordinator journals into dir and, when crash is set, is killed at t=4
// and rebuilt from the journal at t=5 via the faults subsystem's
// coordinator_crash/coordinator_restart hooks.
func e13Run(crash bool, dir string) (*e13Result, error) {
	// The coordinator runs on a Manual clock so the crash-recovery timeline
	// is bit-reproducible: scheduler time is whatever the script sets,
	// independent of how long recovery really takes.
	origin := time.Unix(1_700_000_000, 0)
	clk := clock.NewManual(origin)
	setAt := func(t unit.Time) { clk.Set(origin.Add(time.Duration(float64(t) * float64(time.Second)))) }
	mkOpts := func() coordinator.Options {
		net := fabric.NewNetwork()
		net.AddUniformHosts(10, "w1", "w2", "w3")
		return coordinator.Options{
			Net:               net,
			Scheduler:         sched.EchelonMADD{Backfill: true},
			QuarantineTimeout: time.Hour,
			Clock:             clk,
			Logf:              func(string, ...interface{}) {},
		}
	}
	groupA, groupB, err := e13Groups()
	if err != nil {
		return nil, err
	}

	var c *coordinator.Coordinator
	if dir == "" {
		c, err = coordinator.New(mkOpts())
	} else {
		c, err = coordinator.Restore(mkOpts(), dir)
	}
	if err != nil {
		return nil, err
	}

	res := &e13Result{}
	flow := func(gid, fid string, ev string, at unit.Time) error {
		setAt(at)
		_, err := c.FlowEvent(wire.FlowEvent{GroupID: gid, FlowID: fid, Event: ev})
		return err
	}

	// The fault schedule is declared in the fault subsystem's vocabulary and
	// validated like any chaos run; its two events are dispatched at their
	// scheduled times through the same LiveActions hooks a wall-clock replay
	// would drive (the script advances the injected clock itself so the
	// timeline stays bit-reproducible).
	outage := &faults.Schedule{Events: []faults.Event{
		{At: 4, Kind: faults.CoordinatorCrash},
		{At: 5, Kind: faults.CoordinatorRestart},
	}}
	if err := outage.Validate(); err != nil {
		return nil, err
	}
	actions := faults.LiveActions{
		CrashCoordinator: func() error {
			// A kill, not a shutdown: the instance is abandoned with no
			// flush call — the journal's per-append fsync is all that
			// survives.
			c = nil
			return nil
		},
		RestartCoordinator: func() error {
			c2, err := coordinator.Restore(mkOpts(), dir)
			if err != nil {
				return err
			}
			res.parkedAfterRestore = c2.GroupParked("jobA/pp") && c2.GroupParked("jobB/pp")
			// The agents redial and re-announce their groups, which adopts
			// the journaled state instead of starting over.
			if err := c2.RegisterGroup("a1", groupA); err != nil {
				return err
			}
			if err := c2.RegisterGroup("a2", groupB); err != nil {
				return err
			}
			res.revivedAfterRejoin = !c2.GroupParked("jobA/pp") && !c2.GroupParked("jobB/pp")
			c = c2
			return nil
		},
	}

	// t=0: both jobs arrive and release their stage-0 flows.
	if err := c.RegisterGroup("a1", groupA); err != nil {
		return nil, err
	}
	if err := c.RegisterGroup("a2", groupB); err != nil {
		return nil, err
	}
	if err := flow("jobA/pp", "a0", wire.EventReleased, 0); err != nil {
		return nil, err
	}
	if err := flow("jobB/pp", "b0", wire.EventReleased, 0); err != nil {
		return nil, err
	}
	// t=2: job A advances to stage 1.
	if err := flow("jobA/pp", "a0", wire.EventFinished, 2); err != nil {
		return nil, err
	}
	if err := flow("jobA/pp", "a1", wire.EventReleased, 2); err != nil {
		return nil, err
	}
	if crash {
		for _, e := range outage.Sorted() {
			setAt(e.At)
			var err error
			switch e.Kind {
			case faults.CoordinatorCrash:
				err = actions.CrashCoordinator()
			case faults.CoordinatorRestart:
				err = actions.RestartCoordinator()
			}
			if err != nil {
				return nil, fmt.Errorf("e13: %s at t=%v: %w", e.Kind, e.At, err)
			}
		}
	}
	// t=6: job B advances to stage 1; t=8: job A completes.
	if err := flow("jobB/pp", "b0", wire.EventFinished, 6); err != nil {
		return nil, err
	}
	if err := flow("jobB/pp", "b1", wire.EventReleased, 6); err != nil {
		return nil, err
	}
	if err := flow("jobA/pp", "a1", wire.EventFinished, 8); err != nil {
		return nil, err
	}
	// t=9: sample the allocation with b1 mid-flight.
	setAt(9)
	if res.midRates, err = c.Tick(); err != nil {
		return nil, err
	}
	// t=10: job B completes.
	if err := flow("jobB/pp", "b1", wire.EventFinished, 10); err != nil {
		return nil, err
	}

	if res.refA, res.tardA, err = c.GroupStatus("jobA/pp"); err != nil {
		return nil, err
	}
	if res.refB, res.tardB, err = c.GroupStatus("jobB/pp"); err != nil {
		return nil, err
	}
	res.total = c.TotalTardiness()
	if dir != "" {
		if entries, err := os.ReadDir(dir); err == nil {
			res.journalFiles = len(entries)
		}
	}
	c.Close()
	return res, nil
}

// ExtCrashRecovery (E13) kills the coordinator mid-run and rebuilds it from
// its write-ahead journal, then proves the recovered trajectory is the
// no-crash trajectory: the restored coordinator parks the journaled groups
// until their agents re-announce them, re-adoption revives them with their
// progress intact, and per-group reference times, achieved tardiness and
// post-recovery allocations all match a golden run that never crashed —
// bit-for-bit, not approximately.
func ExtCrashRecovery() (*Report, error) {
	r := &Report{ID: "e13", Title: "Crash recovery: journal replay converges to the no-crash run"}

	golden, err := e13Run(false, "")
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "e13-journal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	crashed, err := e13Run(true, dir)
	if err != nil {
		return nil, err
	}

	r.Table = metrics.NewTable("metric", "no-crash", "crash+restore")
	r.Table.AddRowf("jobA reference", float64(golden.refA), float64(crashed.refA))
	r.Table.AddRowf("jobA tardiness", float64(golden.tardA), float64(crashed.tardA))
	r.Table.AddRowf("jobB reference", float64(golden.refB), float64(crashed.refB))
	r.Table.AddRowf("jobB tardiness", float64(golden.tardB), float64(crashed.tardB))
	r.Table.AddRowf("total tardiness", float64(golden.total), float64(crashed.total))
	r.Table.AddRowf("b1 rate at t=9", float64(golden.midRates["b1"]), float64(crashed.midRates["b1"]))

	r.check("restore parks surviving groups until their agents rejoin",
		crashed.parkedAfterRestore, "parked=%v", crashed.parkedAfterRestore)
	r.check("re-registration re-adopts parked groups with state intact",
		crashed.revivedAfterRejoin, "revived=%v", crashed.revivedAfterRejoin)
	r.check("per-group reference times match the golden run bit-for-bit",
		golden.refA == crashed.refA && golden.refB == crashed.refB,
		"jobA %v vs %v, jobB %v vs %v", golden.refA, crashed.refA, golden.refB, crashed.refB)
	r.check("per-group tardiness matches the golden run bit-for-bit",
		golden.tardA == crashed.tardA && golden.tardB == crashed.tardB,
		"jobA %v vs %v, jobB %v vs %v", golden.tardA, crashed.tardA, golden.tardB, crashed.tardB)
	r.check("total tardiness matches the golden run",
		golden.total == crashed.total, "%v vs %v", golden.total, crashed.total)
	r.check("post-recovery allocations match the golden run",
		len(crashed.midRates) > 0 && reflect.DeepEqual(golden.midRates, crashed.midRates),
		"golden %v vs crash %v", golden.midRates, crashed.midRates)
	r.check("the crashed run leaves a journal behind",
		crashed.journalFiles > 0, "%d file(s) in the journal dir", crashed.journalFiles)

	// A second crash run in a fresh directory must reproduce the first one
	// exactly — recovery is deterministic, not merely close.
	dir2, err := os.MkdirTemp("", "e13-journal-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir2)
	again, err := e13Run(true, dir2)
	if err != nil {
		return nil, err
	}
	r.check("crash recovery is deterministic across runs",
		again.tardA == crashed.tardA && again.tardB == crashed.tardB &&
			again.total == crashed.total && reflect.DeepEqual(again.midRates, crashed.midRates),
		"repeat total %v vs %v", again.total, crashed.total)

	r.note("Timeline: jobs A and B register at t=0; a0 finishes t=2 releasing a1; the coordinator is killed at t=4 and restored from its journal at t=5; b0 finishes t=6 releasing b1; a1 finishes t=8; allocations sampled t=9; b1 finishes t=10.")
	r.note("The restored coordinator re-enters quarantine for every journaled group; the agents' re-announcements adopt the surviving state (release flags, remaining bytes, reference times, achieved tardiness) rather than restarting the jobs.")
	return r, nil
}
