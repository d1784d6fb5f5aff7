package check

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"echelonflow/internal/coordinator"
	"echelonflow/internal/core"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// compareRuns demands two simulations of the same scenario be identical —
// not approximately: the differential oracles assert that optimisations
// (plan caching, delta rescheduling) are pure implementation detail.
func compareRuns(oracle string, c *compiled, a, b *sim.Result) []Violation {
	var out []Violation
	if a.Makespan != b.Makespan {
		out = append(out, vf(oracle, "makespan diverges: %v vs %v", a.Makespan, b.Makespan))
	}
	if a.SchedulerCalls != b.SchedulerCalls {
		out = append(out, vf(oracle, "scheduler calls diverge: %d vs %d", a.SchedulerCalls, b.SchedulerCalls))
	}
	for _, n := range c.commNodes() {
		ra, oka := a.Flows[n.ID]
		rb, okb := b.Flows[n.ID]
		if oka != okb || ra != rb {
			out = append(out, vf(oracle, "flow %s record diverges: %+v vs %+v", n.ID, ra, rb))
		}
	}
	for _, gid := range c.groupIDs() {
		ga, gb := a.Groups[gid], b.Groups[gid]
		if ga.Reference != gb.Reference || ga.Tardiness != gb.Tardiness || ga.CompletionTime != gb.CompletionTime {
			out = append(out, vf(oracle, "group %s diverges: ref %v/%v tard %v/%v cct %v/%v",
				gid, ga.Reference, gb.Reference, ga.Tardiness, gb.Tardiness, ga.CompletionTime, gb.CompletionTime))
		}
	}
	if len(a.Rates) != len(b.Rates) {
		out = append(out, vf(oracle, "rate timelines diverge: %d vs %d segments", len(a.Rates), len(b.Rates)))
		return out
	}
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			out = append(out, vf(oracle, "rate segment %d diverges: %+v vs %+v", i, a.Rates[i], b.Rates[i]))
			break
		}
	}
	return out
}

// diffCache runs the scenario with a pre-warmed PlanCache and with no cache
// at all; the cache must be invisible in every observable.
func diffCache(c *compiled) []Violation {
	cache := sched.NewPlanCache()
	if _, err := runSim(c, sched.EchelonMADD{Backfill: true, Cache: cache}); err != nil {
		return []Violation{vf(OracleCache, "warm-up run: %v", err)}
	}
	warm, err := runSim(c, sched.EchelonMADD{Backfill: true, Cache: cache})
	if err != nil {
		return []Violation{vf(OracleCache, "cached run: %v", err)}
	}
	cold, err := runSim(c, sched.EchelonMADD{Backfill: true})
	if err != nil {
		return []Violation{vf(OracleCache, "cold run: %v", err)}
	}
	return compareRuns(OracleCache, c, warm, cold)
}

// replayEvent is one timed action in the coordinator replay of a simulated
// run: a fabric capacity rewrite or a flow lifecycle event.
type replayEvent struct {
	at   unit.Time
	kind int // 0 capacity, 1 released, 2 finished — applied in this order at equal times
	// capacity events
	host   string
	eg, in unit.Rate
	// flow events
	gid, fid string
}

// buildReplayEvents lowers a simulation result into the timed event script
// an agent fleet would deliver: every flow's release and finish, plus the
// scenario's capacity changes. Releases sort before finishes at equal times
// so zero-size flows (release == finish) replay in a legal order.
func buildReplayEvents(c *compiled, res *sim.Result) []replayEvent {
	var evs []replayEvent
	for _, cc := range c.caps {
		evs = append(evs, replayEvent{at: cc.At, kind: 0, host: cc.Host, eg: cc.Egress, in: cc.Ingress})
	}
	for _, n := range c.commNodes() {
		rec, ok := res.Flows[n.ID]
		if !ok {
			continue
		}
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		evs = append(evs, replayEvent{at: rec.Release, kind: 1, gid: gid, fid: n.ID})
		evs = append(evs, replayEvent{at: rec.Finish, kind: 2, gid: gid, fid: n.ID})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		if evs[i].kind != evs[j].kind {
			return evs[i].kind < evs[j].kind
		}
		return evs[i].fid < evs[j].fid
	})
	return evs
}

// buildGroups constructs the EchelonFlow groups exactly as sim.New does:
// grouped comm nodes under their arrangement, ungrouped ones as singleton
// coflows, scenario weights applied.
func buildGroups(c *compiled) ([]*core.EchelonFlow, error) {
	flowsOf := make(map[string][]*core.Flow)
	var order []string
	for _, n := range c.commNodes() {
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		if _, seen := flowsOf[gid]; !seen {
			order = append(order, gid)
		}
		flowsOf[gid] = append(flowsOf[gid], &core.Flow{ID: n.ID, Src: n.Src, Dst: n.Dst, Size: n.Size, Stage: n.Stage})
	}
	var out []*core.EchelonFlow
	for _, gid := range order {
		arr, ok := c.arrs[gid]
		if !ok {
			arr = core.Coflow{}
		}
		g, err := core.New(gid, arr, flowsOf[gid]...)
		if err != nil {
			return nil, err
		}
		if w, ok := c.weights[gid]; ok {
			g.Weight = w
		}
		out = append(out, g)
	}
	return out, nil
}

// replayOutcome is what the live-coordinator comparisons inspect.
type replayOutcome struct {
	refs  map[string]unit.Time
	tards map[string]unit.Time
	total unit.Time
	// ratesAt holds, per event time, the allocation in force after every
	// event at that time was applied.
	ratesAt map[unit.Time]map[string]unit.Rate
}

// replayHooks customizes replayRunExt beyond the plain script replay.
type replayHooks struct {
	// tweak mutates the coordinator options before every construction
	// (initial and post-crash restores alike) — the degrade oracle uses it
	// to arm the scheduler deadline.
	tweak func(*coordinator.Options)
	// before runs immediately before event i is applied, against the live
	// coordinator — the chaos injection point. After a crash it runs on the
	// restored coordinator before its groups are re-registered.
	before func(co *coordinator.Coordinator, i int) error
	// inPlace restores a crash at the instant of the last event before it
	// rather than the crash event's own: no outage, so no flow in flight
	// across the crash drifts.
	inPlace bool
}

// replayRun drives the event script against a live coordinator with an
// injected hand-advanced clock (the E13 technique). An empty dir runs
// journal-free; otherwise the coordinator journals into dir and, when
// crashAt >= 0, is abandoned mid-script and rebuilt from the journal
// before the event at that index — exactly a kill, not a shutdown.
func replayRun(c *compiled, res *sim.Result, dir string, crashAt int) (*replayOutcome, error) {
	var crashes []int
	if crashAt >= 0 {
		crashes = []int{crashAt}
	}
	return replayRunExt(c, res, dir, crashes, replayHooks{})
}

// replayRunExt is replayRun generalized to repeated kill/restore cycles (one
// per index in crashes) and per-event chaos hooks.
func replayRunExt(c *compiled, res *sim.Result, dir string, crashes []int, hooks replayHooks) (*replayOutcome, error) {
	clk := newReplayClock()
	mkOpts := func() coordinator.Options {
		return coordinator.Options{
			Net: c.newNet(),
			// Delta-wrapped: single-flow events route through the
			// incremental Apply path, so the live and journal oracles also
			// prove the coordinator's delta routing (and Prime-on-Restore)
			// preserves the trajectory. Coalescing stays off — its drain
			// timer is wall-clock-driven and would be nondeterministic here.
			Scheduler:         sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}),
			QuarantineTimeout: time.Hour,
			SnapshotEvery:     8,
			Clock:             clk.now,
			Logf:              func(string, ...interface{}) {},
			// Group-commit with an hour-long window: every journal append
			// rides the batched path, and the in-process "kill" (abandon
			// without Close) loses only the deferred fsync — the write()s are
			// already in the OS page cache, so Restore must still be
			// bit-for-bit. This proves batching never reorders or drops a
			// record short of real power loss.
			GroupCommit: time.Hour,
		}
	}
	if hooks.tweak != nil {
		base := mkOpts
		mkOpts = func() coordinator.Options {
			o := base()
			hooks.tweak(&o)
			return o
		}
	}
	groups, err := buildGroups(c)
	if err != nil {
		return nil, err
	}
	var co *coordinator.Coordinator
	if dir == "" {
		co, err = coordinator.New(mkOpts())
	} else {
		co, err = coordinator.Restore(mkOpts(), dir)
	}
	if err != nil {
		return nil, err
	}
	register := func() error {
		for _, g := range groups {
			if err := co.RegisterGroup("check", g); err != nil {
				return err
			}
		}
		return nil
	}
	if err := register(); err != nil {
		return nil, err
	}

	out := &replayOutcome{
		refs:    make(map[string]unit.Time),
		tards:   make(map[string]unit.Time),
		ratesAt: make(map[unit.Time]map[string]unit.Rate),
	}
	// Every flow event is encoded and decoded through the wire codec before it
	// reaches the coordinator — the bytes a live agent fleet would have put on
	// the wire — so the oracles also prove the codec observationally
	// transparent. One codec pair reused across the script keeps interning
	// and buffer reuse on the tested path too.
	var pipe bytes.Buffer
	codec := wire.NewCodec(&pipe)
	roundTrip := func(ev wire.FlowEvent) (wire.FlowEvent, error) {
		if err := codec.Send(wire.Message{Type: wire.TypeFlowEvent, FlowEvent: &ev}); err != nil {
			return ev, fmt.Errorf("codec encode: %w", err)
		}
		m, err := codec.Recv()
		if err != nil {
			return ev, fmt.Errorf("codec decode: %w", err)
		}
		if m.Type != wire.TypeFlowEvent || m.FlowEvent == nil {
			return ev, fmt.Errorf("codec round trip changed message type to %q", m.Type)
		}
		return *m.FlowEvent, nil
	}
	crashSet := make(map[int]bool, len(crashes))
	for _, i := range crashes {
		crashSet[i] = true
	}
	evs := buildReplayEvents(c, res)
	for i, ev := range evs {
		if crashSet[i] {
			if !hooks.inPlace {
				clk.setAt(ev.at)
			}
			co = nil // the kill: no Close, no flush; only the journal survives
			co, err = coordinator.Restore(mkOpts(), dir)
			if err != nil {
				return nil, err
			}
		}
		if hooks.before != nil {
			if err := hooks.before(co, i); err != nil {
				return nil, err
			}
		}
		if crashSet[i] {
			if err := register(); err != nil {
				return nil, err
			}
		}
		clk.setAt(ev.at)
		var rates map[string]unit.Rate
		switch ev.kind {
		case 0:
			if err := co.SetCapacity(ev.host, ev.eg, ev.in); err != nil {
				return nil, err
			}
			if rates, err = co.Tick(); err != nil {
				return nil, err
			}
		case 1, 2:
			event := wire.EventReleased
			if ev.kind == 2 {
				event = wire.EventFinished
			}
			fe, err := roundTrip(wire.FlowEvent{GroupID: ev.gid, FlowID: ev.fid, Event: event})
			if err != nil {
				return nil, err
			}
			if rates, err = co.FlowEvent(fe); err != nil {
				return nil, err
			}
		}
		if rates == nil {
			// A degraded (or soft-quarantined) coordinator batches events into
			// a coalescing window; its wall-clock drain timer would be
			// nondeterministic here, so force the flush synchronously at the
			// script's frozen clock instead.
			if rates, err = co.Drain(); err != nil {
				return nil, err
			}
		}
		out.ratesAt[ev.at] = rates // later events at the same time overwrite
	}
	for _, g := range groups {
		ref, tard, err := co.GroupStatus(g.ID)
		if err != nil {
			return nil, err
		}
		out.refs[g.ID], out.tards[g.ID] = ref, tard
	}
	out.total = co.TotalTardiness()
	co.Close()
	return out, nil
}

// liveTol is the sim-vs-live agreement tolerance: the coordinator's clock
// quantizes scheduler time to nanoseconds, so bit-equality with the
// float64 simulator is out of reach by about 1e-9 per event.
const liveTol = 1e-6

// diffLive replays the simulated run's flow events against a live
// coordinator and demands both sides account it the same way: per-group
// references and tardiness, the weighted total, and (in pure event-driven
// mode) the allocation after every event.
func diffLive(c *compiled, res *sim.Result) []Violation {
	live, err := replayRun(c, res, "", -1)
	if err != nil {
		return []Violation{vf(OracleLive, "replay: %v", err)}
	}
	var out []Violation
	for _, gid := range c.groupIDs() {
		gr, ok := res.Groups[gid]
		if !ok {
			continue
		}
		if math.Abs(float64(gr.Reference-live.refs[gid])) > liveTol {
			out = append(out, vf(OracleLive, "group %s reference: sim %v vs live %v", gid, gr.Reference, live.refs[gid]))
		}
		if math.Abs(float64(gr.Tardiness-live.tards[gid])) > liveTol {
			out = append(out, vf(OracleLive, "group %s tardiness: sim %v vs live %v", gid, gr.Tardiness, live.tards[gid]))
		}
	}
	if math.Abs(float64(res.TotalTardiness()-live.total)) > liveTol {
		out = append(out, vf(OracleLive, "total tardiness: sim %v vs live %v", res.TotalTardiness(), live.total))
	}
	// Allocation comparison: only the first event time is comparable.
	// Beyond it the trajectories legitimately drift — MADD rates are
	// time-varying and the simulator reschedules at compute finishes and
	// interval ticks the coordinator never observes, so remaining volumes
	// (and hence instantaneous rates) differ mid-run even though both
	// sides converge on the same finish accounting. At the first event
	// both schedulers see bit-identical snapshots (full sizes, fresh
	// references), so rates must agree to clock-quantization tolerance.
	if c.sc.IntervalOnly {
		return out
	}
	times := make([]unit.Time, 0, len(live.ratesAt))
	for t := range live.ratesAt {
		times = append(times, t)
	}
	if len(times) == 0 {
		return out
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	t0 := times[0]
	sm := make(map[string]unit.Rate)
	for _, seg := range res.Rates {
		if seg.From == t0 {
			sm[seg.FlowID] = seg.Rate
		}
	}
	lm := live.ratesAt[t0]
	ids := make(map[string]bool)
	for id := range sm {
		ids[id] = true
	}
	for id := range lm {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		// The simulator omits ~zero-rate segments, so a missing side
		// reads as zero.
		if math.Abs(float64(sm[id]-lm[id])) > liveTol*(1+math.Abs(float64(sm[id]))) {
			out = append(out, vf(OracleLive, "flow %s rate at t=%v: sim %v vs live %v", id, t0, sm[id], lm[id]))
		}
	}
	return out
}

// diffJournal replays the run twice against live coordinators — once
// uninterrupted, once killed mid-script and rebuilt from its write-ahead
// journal — and demands the recovered trajectory match (the E13 invariant,
// here over randomized scenarios): every reference time, achieved
// tardiness and the weighted total bit-equal, and allocations bit-equal at
// every instant not tainted by crossing-flow drift (see driftedFlows).
func diffJournal(c *compiled, res *sim.Result) []Violation {
	evs := buildReplayEvents(c, res)
	if len(evs) == 0 {
		return nil
	}
	golden, err := replayRun(c, res, "", -1)
	if err != nil {
		return []Violation{vf(OracleJournal, "golden replay: %v", err)}
	}
	dir, err := os.MkdirTemp("", "echelon-check-journal-*")
	if err != nil {
		return []Violation{vf(OracleJournal, "journal dir: %v", err)}
	}
	defer os.RemoveAll(dir)
	crashAt := len(evs) / 2
	crashed, err := replayRun(c, res, dir, crashAt)
	if err != nil {
		return []Violation{vf(OracleJournal, "crash replay: %v", err)}
	}
	var out []Violation
	for _, gid := range c.groupIDs() {
		if golden.refs[gid] != crashed.refs[gid] {
			out = append(out, vf(OracleJournal, "group %s reference: golden %v vs restored %v", gid, golden.refs[gid], crashed.refs[gid]))
		}
		if golden.tards[gid] != crashed.tards[gid] {
			out = append(out, vf(OracleJournal, "group %s tardiness: golden %v vs restored %v", gid, golden.tards[gid], crashed.tards[gid]))
		}
	}
	if golden.total != crashed.total {
		out = append(out, vf(OracleJournal, "total tardiness: golden %v vs restored %v", golden.total, crashed.total))
	}
	tc := evs[crashAt].at
	drifted := driftedFlows(res, tc)
	for _, t := range sortedTimes(golden.ratesAt) {
		if t >= tc && driftActiveAt(res, drifted, t) {
			continue
		}
		if !reflect.DeepEqual(golden.ratesAt[t], crashed.ratesAt[t]) {
			out = append(out, vf(OracleJournal, "allocations at t=%v: golden %v vs restored %v", t, golden.ratesAt[t], crashed.ratesAt[t]))
		}
	}
	return out
}

// driftedFlows computes which flows' modeled remaining volume may lawfully
// diverge after a coordinator crash at tc. A flow in flight across the
// crash drifts: the journal cannot know how much it transmitted while the
// coordinator was down (agent finish reports resynchronize the model, so
// the drift is bounded and self-correcting — but not bit-zero). Drift then
// propagates: any flow sharing post-crash airtime with a drifted flow sees
// different rates, so its remaining drifts too, transitively.
func driftedFlows(res *sim.Result, tc unit.Time) map[string]bool {
	return driftedFlowsWindow(res, tc, tc)
}

// driftedFlowsWindow is driftedFlows for a divergence window rather than an
// instant: any flow in flight at any point of [t1, t2] seeds the drift set
// (the degrade oracle's episode spans many events, not one crash instant),
// and drift then propagates transitively over shared post-t1 airtime.
func driftedFlowsWindow(res *sim.Result, t1, t2 unit.Time) map[string]bool {
	drifted := make(map[string]bool)
	for id, rec := range res.Flows {
		if rec.Release < t2 && rec.Finish > t1 {
			drifted[id] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for id, rec := range res.Flows {
			if drifted[id] || rec.Finish <= t1 {
				continue
			}
			for did := range drifted {
				d := res.Flows[did]
				lo := unit.MaxTime(unit.MaxTime(rec.Release, d.Release), t1)
				hi := unit.MinTime(rec.Finish, d.Finish)
				if lo < hi {
					drifted[id] = true
					changed = true
					break
				}
			}
		}
	}
	return drifted
}

// Degrade-episode parameters: the stall exceeds the budget, so every
// in-episode pass overruns. Both count on the replay's frozen clock, on which
// a pass takes no time at all: the outcome is decided by the stall alone,
// never by how loaded the machine running the oracle is.
const (
	degradeBudget = 50 * time.Millisecond
	degradeStall  = 75 * time.Millisecond
)

// diffDegrade injects a scheduler-slowdown episode over the middle third of
// the event script against a deadline-armed live coordinator and demands
// graceful degradation: every pass during the episode answers from the
// fallback with allocations that stay fabric-feasible, finish/tardiness
// accounting matches the unconstrained run bit-for-bit, and once the stall
// clears the allocation trajectory re-converges bit-for-bit with the
// non-degraded run at every instant not lawfully tainted by episode drift.
// A second degraded run is killed in the middle of the episode and restored
// from its journal in place; it must equal the uninterrupted degraded run at
// every instant, with no drift shadow — the journal records which passes
// fell back, and replay follows it.
func diffDegrade(c *compiled, res *sim.Result) []Violation {
	evs := buildReplayEvents(c, res)
	if len(evs) < 3 {
		return nil
	}
	golden, err := replayRun(c, res, "", -1)
	if err != nil {
		return []Violation{vf(OracleDegrade, "golden replay: %v", err)}
	}
	epStart, epEnd := len(evs)/3, 2*len(evs)/3
	sawDegrade := false
	hooks := replayHooks{
		tweak: func(o *coordinator.Options) {
			o.SchedDeadline = degradeBudget
			// The oracle watches the deadline fallback itself; keep the
			// breaker out of the way.
			o.DeadlineTripAfter = 1 << 20
		},
		// Every event sets the stall it falls under, so a coordinator
		// restored mid-episode is stalled like the one that crashed.
		before: func(co *coordinator.Coordinator, i int) error {
			if i == epEnd {
				sawDegrade = co.SchedDegraded()
			}
			if i >= epStart && i < epEnd {
				return co.SetSchedStall(degradeStall)
			}
			return co.SetSchedStall(0)
		},
	}
	degraded, err := replayRunExt(c, res, "", nil, hooks)
	if err != nil {
		return []Violation{vf(OracleDegrade, "degraded replay: %v", err)}
	}
	var out []Violation
	if !sawDegrade {
		out = append(out, vf(OracleDegrade, "stall episode never degraded the scheduler (oracle vacuous)"))
	}
	// Ground-truth accounting (references, tardiness) is driven by reported
	// finishes, not allocation quality: it must survive the episode
	// bit-for-bit.
	for _, gid := range c.groupIDs() {
		if golden.refs[gid] != degraded.refs[gid] {
			out = append(out, vf(OracleDegrade, "group %s reference: golden %v vs degraded %v", gid, golden.refs[gid], degraded.refs[gid]))
		}
		if golden.tards[gid] != degraded.tards[gid] {
			out = append(out, vf(OracleDegrade, "group %s tardiness: golden %v vs degraded %v", gid, golden.tards[gid], degraded.tards[gid]))
		}
	}
	if golden.total != degraded.total {
		out = append(out, vf(OracleDegrade, "total tardiness: golden %v vs degraded %v", golden.total, degraded.total))
	}
	// Every allocation the degraded run pushed — fallback passes included —
	// must respect the fabric capacities in force at that instant.
	out = append(out, feasibleAt(OracleDegrade, c, degraded.ratesAt)...)
	// Re-convergence: outside the episode and its lawful drift shadow the
	// degraded run's allocations are bit-equal to the non-degraded run's.
	t1, t2 := evs[epStart].at, evs[epEnd].at
	drifted := driftedFlowsWindow(res, t1, t2)
	for _, t := range sortedTimes(golden.ratesAt) {
		if t >= t1 && (t < t2 || driftActiveAt(res, drifted, t)) {
			continue
		}
		if !reflect.DeepEqual(golden.ratesAt[t], degraded.ratesAt[t]) {
			out = append(out, vf(OracleDegrade, "allocations at t=%v: golden %v vs degraded %v", t, golden.ratesAt[t], degraded.ratesAt[t]))
		}
	}
	if epEnd-epStart < 2 {
		return out // no crash point with stalled events on both sides
	}
	return append(out, degradeRestore(c, res, hooks, degraded, epStart+(epEnd-epStart)/2)...)
}

// degradeRestore is the degrade oracle's crash arm: the degraded run again,
// journaled and killed before event crashAt, restored in place; everything
// it reports must equal the uninterrupted degraded run's, bit for bit. The
// events on both sides of crashAt are in the episode, so the pass reviving
// the restored groups is a fallback over the state the last one planned
// over, as it is in the run that never crashed.
func degradeRestore(c *compiled, res *sim.Result, hooks replayHooks, degraded *replayOutcome, crashAt int) []Violation {
	dir, err := os.MkdirTemp("", "echelon-check-degrade-*")
	if err != nil {
		return []Violation{vf(OracleDegrade, "journal dir: %v", err)}
	}
	defer os.RemoveAll(dir)
	hooks.inPlace = true
	restored, err := replayRunExt(c, res, dir, []int{crashAt}, hooks)
	if err != nil {
		return []Violation{vf(OracleDegrade, "crash replay: %v", err)}
	}
	var out []Violation
	for _, gid := range c.groupIDs() {
		if degraded.refs[gid] != restored.refs[gid] || degraded.tards[gid] != restored.tards[gid] {
			out = append(out, vf(OracleDegrade, "group %s ref/tardiness: degraded %v/%v vs restored mid-episode %v/%v",
				gid, degraded.refs[gid], degraded.tards[gid], restored.refs[gid], restored.tards[gid]))
		}
	}
	if degraded.total != restored.total {
		out = append(out, vf(OracleDegrade, "total tardiness: degraded %v vs restored mid-episode %v", degraded.total, restored.total))
	}
	for _, t := range sortedTimes(degraded.ratesAt) {
		if !reflect.DeepEqual(degraded.ratesAt[t], restored.ratesAt[t]) {
			out = append(out, vf(OracleDegrade, "allocations at t=%v: degraded %v vs restored mid-episode %v", t, degraded.ratesAt[t], restored.ratesAt[t]))
		}
	}
	return out
}

// sortedTimes lists a per-instant allocation map's instants in order.
func sortedTimes(ratesAt map[unit.Time]map[string]unit.Rate) []unit.Time {
	times := make([]unit.Time, 0, len(ratesAt))
	for t := range ratesAt {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times
}

// feasibleAt checks per-instant allocation maps against the capacity
// timeline — the degraded-mode analogue of oracleFeasible, applied to what a
// live coordinator actually pushed rather than simulator rate segments.
func feasibleAt(oracle string, c *compiled, ratesAt map[unit.Time]map[string]unit.Rate) []Violation {
	var out []Violation
	ct := newCapTimeline(c.sc.Hosts, c.caps)
	for _, t := range sortedTimes(ratesAt) {
		rates := ratesAt[t]
		ids := make([]string, 0, len(rates))
		for id := range rates {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		egUse := make(map[string]float64)
		inUse := make(map[string]float64)
		for _, id := range ids {
			r := float64(rates[id])
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				out = append(out, vf(oracle, "flow %s has invalid rate %v at t=%v", id, rates[id], t))
				continue
			}
			n := c.graph.Node(id)
			if n == nil {
				out = append(out, vf(oracle, "allocation for unknown flow %s at t=%v", id, t))
				continue
			}
			egUse[n.Src] += r
			inUse[n.Dst] += r
		}
		for _, h := range c.sc.Hosts {
			eg, in := ct.at(h.Name, t)
			if use := egUse[h.Name]; use > float64(eg)*(1+1e-6)+unit.Eps {
				out = append(out, vf(oracle, "host %s egress oversubscribed at t=%v: %v > %v", h.Name, t, use, eg))
			}
			if use := inUse[h.Name]; use > float64(in)*(1+1e-6)+unit.Eps {
				out = append(out, vf(oracle, "host %s ingress oversubscribed at t=%v: %v > %v", h.Name, t, use, in))
			}
		}
	}
	return out
}

// driftActiveAt reports whether any drifted flow is still in flight at t.
func driftActiveAt(res *sim.Result, drifted map[string]bool, t unit.Time) bool {
	for id := range drifted {
		rec := res.Flows[id]
		if rec.Release <= t && rec.Finish > t {
			return true
		}
	}
	return false
}

// replayClock is the hand-advanced coordinator clock (E13's technique):
// scheduler time is whatever the script says, so replays are reproducible
// regardless of real elapsed time.
type replayClock struct {
	mu   sync.Mutex
	base time.Time
	t    time.Time
}

func newReplayClock() *replayClock {
	base := time.Unix(1_700_000_000, 0)
	return &replayClock{base: base, t: base}
}

func (c *replayClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *replayClock) setAt(t unit.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.base.Add(time.Duration(float64(t) * float64(time.Second)))
}
