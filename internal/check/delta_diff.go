package check

import (
	"sort"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// deltaViolationCap bounds how many violations one scenario reports: a
// diverged trajectory compounds at every later event, and the shrinker only
// needs the first few to minimize.
const deltaViolationCap = 16

// diffDelta is the delta-vs-full differential oracle. It drives the
// simulated run's event script through a standalone fluid model (the same
// assembly discipline as the coordinator: sorted groups, arrangement-order
// flows, remaining floored at 1) and, at every flow event, asks the
// incremental scheduler for a patch while an independent full EchelonMADD
// solves the identical snapshot. The contract proven per event:
//
//   - an accepted patch is bit-equal to the full pass for every flow of a
//     replanned group, holds every other flow at exactly its in-force rate,
//     covers every snapshot flow, and is feasible on the live fabric;
//   - a refused patch falls back to a full pass that must bit-equal the
//     independent reference (full-vs-full determinism);
//   - after a capacity change the patch MUST be refused — the incremental
//     state is stale by construction.
//
// Held flows are deliberately NOT compared against the full pass: a full
// Schedule may lawfully re-pace an untouched group (backfill redistributes
// freed capacity), while the delta contract freezes it until its own next
// event or a full reschedule. That divergence is semantic, not a bug, and
// DESIGN.md documents it.
func diffDelta(c *compiled, res *sim.Result) []Violation {
	groups, err := buildGroups(c)
	if err != nil {
		return []Violation{vf(OracleDelta, "build groups: %v", err)}
	}
	net := c.newNet()
	deltaS := sched.NewDelta(sched.EchelonMADD{Backfill: true})
	fullS := sched.EchelonMADD{Backfill: true}

	type dfFlow struct {
		flow               *core.Flow
		released, finished bool
		remaining          unit.Bytes
		release            unit.Time
		rate               unit.Rate
	}
	type dfGroup struct {
		state  *sched.GroupState
		refSet bool
		flows  map[string]*dfFlow
	}
	gs := make(map[string]*dfGroup, len(groups))
	gids := make([]string, 0, len(groups))
	for _, g := range groups {
		dg := &dfGroup{state: &sched.GroupState{Group: g}, flows: make(map[string]*dfFlow, len(g.Flows))}
		for _, f := range g.Flows {
			dg.flows[f.ID] = &dfFlow{flow: f, remaining: f.Size}
		}
		gs[g.ID] = dg
		gids = append(gids, g.ID)
	}
	sort.Strings(gids)

	buildSnap := func(now unit.Time) *sched.Snapshot {
		snap := &sched.Snapshot{Now: now, Groups: make(map[string]*sched.GroupState, len(gs))}
		for _, gid := range gids {
			dg := gs[gid]
			snap.Groups[gid] = dg.state
			for _, member := range dg.state.Group.Flows {
				f := dg.flows[member.ID]
				if !f.released || f.finished {
					continue
				}
				remaining := f.remaining
				if remaining < 1 {
					remaining = 1
				}
				snap.Flows = append(snap.Flows, &sched.FlowState{
					Flow: f.flow, GroupID: gid, Remaining: remaining, Release: f.release,
				})
			}
		}
		return snap
	}
	commit := func(snap *sched.Snapshot, rates map[string]unit.Rate) {
		for _, fs := range snap.Flows {
			gs[fs.GroupID].flows[fs.Flow.ID].rate = rates[fs.Flow.ID]
		}
	}

	var out []Violation
	var last unit.Time
	for _, ev := range buildReplayEvents(c, res) {
		if len(out) >= deltaViolationCap {
			return out
		}
		if dt := ev.at - last; dt > 0 {
			for _, dg := range gs {
				for _, f := range dg.flows {
					if f.released && !f.finished {
						f.remaining -= f.rate.Over(dt)
						if f.remaining < 0 {
							f.remaining = 0
						}
					}
				}
			}
		}
		last = ev.at

		if ev.kind == 0 { // fabric capacity change
			if err := net.SetCapacity(ev.host, ev.eg, ev.in); err != nil {
				return append(out, vf(OracleDelta, "capacity at t=%v: %v", ev.at, err))
			}
			snap := buildSnap(ev.at)
			if _, ok, err := deltaS.Apply(snap, net, sched.Delta{Groups: nil}); err != nil {
				out = append(out, vf(OracleDelta, "apply across capacity change at t=%v: %v", ev.at, err))
			} else if ok {
				out = append(out, vf(OracleDelta, "patch accepted across a capacity change at t=%v", ev.at))
			}
			rates, err := deltaS.Schedule(snap, net)
			if err != nil {
				return append(out, vf(OracleDelta, "full pass after capacity change at t=%v: %v", ev.at, err))
			}
			commit(snap, rates)
			continue
		}

		dg := gs[ev.gid]
		f := dg.flows[ev.fid]
		if ev.kind == 1 { // released
			f.released = true
			f.release = ev.at
			if !dg.refSet {
				dg.refSet = true
				dg.state.Reference = ev.at
			}
		} else { // finished
			f.finished = true
			f.remaining = 0
			deadline := dg.state.Group.Arrangement.Deadline(f.flow.Stage, dg.state.Reference)
			if tard := ev.at - deadline; tard > dg.state.AchievedTardiness {
				dg.state.AchievedTardiness = tard
			}
		}

		snap := buildSnap(ev.at)
		full, err := fullS.Schedule(snap, net)
		if err != nil {
			return append(out, vf(OracleDelta, "reference full pass at t=%v: %v", ev.at, err))
		}
		patch, ok, err := deltaS.Apply(snap, net, sched.Delta{Groups: []string{ev.gid}})
		if err != nil {
			return append(out, vf(OracleDelta, "apply at t=%v: %v", ev.at, err))
		}
		if !ok {
			rates, err := deltaS.Schedule(snap, net)
			if err != nil {
				return append(out, vf(OracleDelta, "fallback full pass at t=%v: %v", ev.at, err))
			}
			for _, fs := range snap.Flows {
				if rates[fs.Flow.ID] != full[fs.Flow.ID] {
					out = append(out, vf(OracleDelta, "fallback flow %s at t=%v: %v vs reference %v",
						fs.Flow.ID, ev.at, rates[fs.Flow.ID], full[fs.Flow.ID]))
				}
			}
			commit(snap, rates)
			continue
		}

		outcome := deltaS.LastOutcome()
		replanned := make(map[string]bool, len(outcome.Replanned))
		for _, id := range outcome.Replanned {
			replanned[id] = true
		}
		if !replanned[ev.gid] && len(snap.Flows) > 0 {
			// The event's own group must be replanned whenever it still has
			// active flows; a vanished group (last flow finished) may not.
			if flows := byGroupActive(snap, ev.gid); flows > 0 {
				out = append(out, vf(OracleDelta, "patch at t=%v did not replan the event's group %s", ev.at, ev.gid))
			}
		}
		for _, fs := range snap.Flows {
			r, present := patch[fs.Flow.ID]
			if !present {
				out = append(out, vf(OracleDelta, "patch at t=%v misses flow %s", ev.at, fs.Flow.ID))
				continue
			}
			if replanned[fs.GroupID] {
				if r != full[fs.Flow.ID] {
					out = append(out, vf(OracleDelta, "replanned flow %s at t=%v: patch %v vs full %v",
						fs.Flow.ID, ev.at, r, full[fs.Flow.ID]))
				}
			} else if held := gs[fs.GroupID].flows[fs.Flow.ID].rate; r != held {
				out = append(out, vf(OracleDelta, "held flow %s at t=%v: patch %v vs in-force %v",
					fs.Flow.ID, ev.at, r, held))
			}
		}
		reqs := make([]fabric.Request, len(snap.Flows))
		for i, fs := range snap.Flows {
			reqs[i] = fabric.Request{ID: fs.Flow.ID, Src: fs.Flow.Src, Dst: fs.Flow.Dst}
		}
		if err := net.Feasible(reqs, patch); err != nil {
			out = append(out, vf(OracleDelta, "patch infeasible at t=%v: %v", ev.at, err))
		}
		commit(snap, patch)
	}
	return out
}

// byGroupActive counts the snapshot's active flows belonging to one group.
func byGroupActive(snap *sched.Snapshot, gid string) int {
	n := 0
	for _, fs := range snap.Flows {
		if fs.GroupID == gid {
			n++
		}
	}
	return n
}
