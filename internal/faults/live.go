package faults

import (
	"context"
	"fmt"
	"time"

	"echelonflow/internal/unit"
)

// LiveActions are the hooks a live replay drives. Any nil hook causes the
// corresponding event kinds to be skipped (with a log line), so a harness
// can wire up only the faults it cares about.
type LiveActions struct {
	// Crash kills the named agent's session (process, goroutine, or
	// connection — the harness decides).
	Crash func(agent string) error
	// Restart revives the named agent.
	Restart func(agent string) error
	// SetCapacity rewrites a host's capacities in the coordinator's
	// fabric model (used by degrade/fail/recover/partition events).
	SetCapacity func(host string, egress, ingress unit.Rate) error
	// Capacity reports a host's current capacities; replay snapshots
	// them before the first mutation so recover/heal events can restore
	// the pre-incident baseline. Required when the schedule contains
	// link or partition events.
	Capacity func(host string) (egress, ingress unit.Rate, ok bool)
	// Straggle dilates compute on a host (optional; most live harnesses
	// have no compute to slow down).
	Straggle func(host string, factor float64) error
	// CrashCoordinator kills the coordinator (drop the instance, cancel
	// its Serve context — the harness decides; the journal is the only
	// state that survives).
	CrashCoordinator func() error
	// RestartCoordinator brings the coordinator back, typically via
	// coordinator.Restore on the same journal directory.
	RestartCoordinator func() error
	// StallScheduler adds d to the elapsed time of every budgeted scheduler
	// pass (sched_stall; zero clears).
	StallScheduler func(d time.Duration) error
	// StallAgent delays the named agent's outbound path by d per message
	// (agent_stall; zero clears).
	StallAgent func(agent string, d time.Duration) error
	// StallFsync makes every journal append take an extra d (fsync_stall;
	// zero clears).
	StallFsync func(d time.Duration) error
}

// stallDuration converts a schedule's stall seconds into wall time.
func stallDuration(f unit.Time) time.Duration {
	return time.Duration(float64(f) * float64(time.Second))
}

// ReplayOptions tune a live replay.
type ReplayOptions struct {
	// TimeScale converts schedule time into wall-clock seconds: an event
	// at t fires at t*TimeScale seconds after replay start. Default 1;
	// tests compress with e.g. 0.01.
	TimeScale float64
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Replay executes a fault schedule against a live cluster in wall-clock
// time. It blocks until the last event has fired, the context is
// cancelled, or a hook returns an error. Events with nil hooks are
// skipped, not fatal.
func Replay(ctx context.Context, sched *Schedule, actions LiveActions, opts ReplayOptions) error {
	if sched.Empty() {
		return nil
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	base := make(map[string]baseline)
	snapshot := func(host string) (baseline, error) {
		if b, ok := base[host]; ok {
			return b, nil
		}
		if actions.Capacity == nil {
			return baseline{}, fmt.Errorf("faults: schedule mutates capacities but LiveActions.Capacity is nil")
		}
		eg, in, ok := actions.Capacity(host)
		if !ok {
			return baseline{}, fmt.Errorf("faults: host %q unknown to live cluster", host)
		}
		b := baseline{eg, in}
		base[host] = b
		return b, nil
	}
	setCap := func(e Event, host string, eg, in unit.Rate) error {
		if actions.SetCapacity == nil {
			logf("faults: skip %s on %s (no SetCapacity hook)", e.Kind, host)
			return nil
		}
		if _, err := snapshot(host); err != nil {
			return err
		}
		return actions.SetCapacity(host, eg, in)
	}
	outageCap := func(e Event, host string) error {
		if actions.SetCapacity == nil {
			logf("faults: skip %s on %s (no SetCapacity hook)", e.Kind, host)
			return nil
		}
		b, err := snapshot(host)
		if err != nil {
			return err
		}
		return actions.SetCapacity(host,
			unit.Rate(float64(b.egress)*OutageFraction),
			unit.Rate(float64(b.ingress)*OutageFraction))
	}
	restoreCap := func(e Event, host string) error {
		if actions.SetCapacity == nil {
			logf("faults: skip %s on %s (no SetCapacity hook)", e.Kind, host)
			return nil
		}
		b, err := snapshot(host)
		if err != nil {
			return err
		}
		return actions.SetCapacity(host, b.egress, b.ingress)
	}

	start := time.Now()
	for _, e := range sched.Sorted() {
		due := start.Add(time.Duration(float64(e.At) * opts.TimeScale * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		}
		logf("faults: t=%v %s host=%s agent=%s", e.At, e.Kind, e.Host, e.Agent)
		var err error
		switch e.Kind {
		case LinkDegrade:
			err = setCap(e, e.Host, e.Egress, e.Ingress)
		case LinkFail:
			err = outageCap(e, e.Host)
		case LinkRecover:
			err = restoreCap(e, e.Host)
		case HostStraggle:
			if actions.Straggle == nil {
				logf("faults: skip host_straggle on %s (no Straggle hook)", e.Host)
			} else {
				err = actions.Straggle(e.Host, e.Factor)
			}
		case AgentCrash:
			if actions.Crash == nil {
				logf("faults: skip agent_crash of %s (no Crash hook)", e.Agent)
			} else {
				err = actions.Crash(e.Agent)
			}
		case AgentRestart:
			if actions.Restart == nil {
				logf("faults: skip agent_restart of %s (no Restart hook)", e.Agent)
			} else {
				err = actions.Restart(e.Agent)
			}
		case CoordinatorCrash:
			if actions.CrashCoordinator == nil {
				logf("faults: skip coordinator_crash (no CrashCoordinator hook)")
			} else {
				err = actions.CrashCoordinator()
			}
		case CoordinatorRestart:
			if actions.RestartCoordinator == nil {
				logf("faults: skip coordinator_restart (no RestartCoordinator hook)")
			} else {
				err = actions.RestartCoordinator()
			}
		case Partition:
			for _, h := range e.Hosts {
				if err = outageCap(e, h); err != nil {
					break
				}
			}
		case PartitionHeal:
			for _, h := range e.Hosts {
				if err = restoreCap(e, h); err != nil {
					break
				}
			}
		case SchedStall:
			if actions.StallScheduler == nil {
				logf("faults: skip sched_stall (no StallScheduler hook)")
			} else {
				err = actions.StallScheduler(stallDuration(e.For))
			}
		case AgentStall:
			if actions.StallAgent == nil {
				logf("faults: skip agent_stall of %s (no StallAgent hook)", e.Agent)
			} else {
				err = actions.StallAgent(e.Agent, stallDuration(e.For))
			}
		case FsyncStall:
			if actions.StallFsync == nil {
				logf("faults: skip fsync_stall (no StallFsync hook)")
			} else {
				err = actions.StallFsync(stallDuration(e.For))
			}
		}
		if err != nil {
			return fmt.Errorf("faults: %s at t=%v: %w", e.Kind, e.At, err)
		}
	}
	return nil
}
