// Package sim co-simulates computation and communication of DDLT workloads
// on a fluid network fabric.
//
// The simulator executes a dependency graph (package dag): Compute nodes
// occupy their worker exclusively for their profiled duration; Comm nodes
// become released flows once their dependencies finish, and transmit at
// whatever rates the configured scheduler assigns. The scheduler is
// re-invoked on every event (flow arrival/departure, computation finish),
// matching the rerun-per-arrival/departure behaviour the paper sketches for
// the Coordinator (§5). This substrate substitutes for the GPU cluster the
// paper envisions; see DESIGN.md.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
)

// Options configures a simulation run.
type Options struct {
	// Graph is the workload: Compute and Comm nodes with dependencies.
	Graph *dag.Graph
	// Net is the fabric the Comm nodes contend on.
	Net fabric.Fabric
	// Scheduler allocates flow rates. Required.
	Scheduler sched.Scheduler
	// Arrangements maps each group name appearing on Comm nodes to its
	// arrangement function. Comm nodes without a group become singleton
	// Coflows (their ideal finish time is their own release).
	Arrangements map[string]core.Arrangement
	// Weights optionally assigns per-group weights for the weighted Eq. 4
	// objective; unlisted groups default to 1.
	Weights map[string]float64
	// Interval, when positive, additionally re-runs the scheduler every
	// Interval seconds while flows are active (the fixed-cadence mode of
	// §5). Zero keeps pure event-driven rescheduling.
	Interval unit.Time
	// IntervalOnly suppresses per-event rescheduling entirely: allocations
	// are recomputed only on interval ticks, and rates are held stale in
	// between — a pure fixed-cadence coordinator. Requires Interval > 0.
	IntervalOnly bool
	// RecordRates captures the full piecewise-constant rate timeline of
	// every flow (used to render Fig. 2-style schedules). Off by default:
	// it grows with event count.
	RecordRates bool
	// MaxEvents bounds the event loop as a runaway guard; 0 means 10^7.
	MaxEvents int
	// CapacityChanges injects fabric dynamics: at each change's time, the
	// named host's capacities are rewritten and the scheduler re-invoked.
	// Changes model failure/degradation (or recovery) of links and
	// background traffic from outside the scheduled tenant set.
	CapacityChanges []CapacityChange
	// Dilations injects compute-time dynamics (stragglers): at each
	// change's time, the named host's straggle factor is set. Compute
	// nodes starting on the host run Factor times slower; a compute
	// already running has its remaining time rescaled at the transition.
	// Factor 1 is a healthy host. Build these (and CapacityChanges) from a
	// typed fault schedule with internal/faults.
	Dilations []DilationChange
	// Events, when non-nil, receives the same flow-lifecycle event stream
	// the live coordinator emits (release/finish/reschedule), stamped with
	// simulated time. Nil costs nothing.
	Events *telemetry.EventLog
}

// CapacityChange is one timed fabric mutation.
type CapacityChange struct {
	At      unit.Time
	Host    string
	Egress  unit.Rate
	Ingress unit.Rate
}

// DilationChange is one timed compute-speed mutation: from At onward, host
// runs computation Factor times slower than profiled (Factor > 1 straggles,
// Factor 1 restores full speed).
type DilationChange struct {
	At     unit.Time
	Host   string
	Factor float64
}

// Span is a half-open execution interval.
type Span struct {
	Start, End unit.Time
}

// Duration returns the span length.
func (s Span) Duration() unit.Time { return s.End - s.Start }

// FlowRecord is the observed lifecycle of one flow.
type FlowRecord struct {
	GroupID  string
	Release  unit.Time // when the flow became transmittable (its start)
	Finish   unit.Time
	Deadline unit.Time // ideal finish under the group's final reference
	Size     unit.Bytes
}

// Tardiness is the flow's Eq. 1 tardiness.
func (f FlowRecord) Tardiness() unit.Time { return f.Finish - f.Deadline }

// RateSegment is one constant-rate span of a flow's transmission.
type RateSegment struct {
	FlowID   string
	From, To unit.Time
	Rate     unit.Rate
}

// GroupResult summarizes one EchelonFlow after the run.
type GroupResult struct {
	Group     *core.EchelonFlow
	Reference unit.Time
	// Tardiness is the group's Eq. 2 tardiness.
	Tardiness unit.Time
	// CompletionTime is the latest flow finish (the Coflow CCT metric).
	CompletionTime unit.Time
}

// Result is the outcome of a run.
type Result struct {
	// Makespan is the finish time of the last node.
	Makespan unit.Time
	// Tasks maps Compute node ID to its execution span.
	Tasks map[string]Span
	// Flows maps Comm node ID to its record.
	Flows map[string]FlowRecord
	// Groups maps group name to its result, including synthetic singleton
	// groups for ungrouped flows.
	Groups map[string]GroupResult
	// SchedulerCalls counts scheduler invocations.
	SchedulerCalls int
	// Rates is the recorded rate timeline (only with Options.RecordRates).
	Rates []RateSegment
}

// TotalTardiness sums weighted group tardiness (Eq. 4: Σ w_i · T_i) over the
// named groups in the order given, or over all groups in sorted ID order when
// none are named, so the float sum is the same on every call. Groups carry
// weight 1 unless Options.Weights says otherwise, so unweighted runs are a
// plain sum. Unknown group names contribute nothing.
func (r *Result) TotalTardiness(groups ...string) unit.Time {
	if len(groups) == 0 {
		for id := range r.Groups {
			groups = append(groups, id)
		}
		sort.Strings(groups)
	}
	var sum unit.Time
	for _, id := range groups {
		gr := r.Groups[id]
		if gr.Group == nil {
			continue
		}
		sum += unit.Time(float64(gr.Tardiness) * gr.Group.EffectiveWeight())
	}
	return sum
}

type nodeStatus int

const (
	waiting nodeStatus = iota
	ready
	running
	done
)

// String names the status for diagnostics.
func (st nodeStatus) String() string {
	switch st {
	case waiting:
		return "waiting"
	case ready:
		return "ready"
	case running:
		return "running"
	case done:
		return "done"
	default:
		return fmt.Sprintf("status(%d)", int(st))
	}
}

// nodeState is mutable per-node simulation state, at the node's graph
// position.
type nodeState struct {
	node    *dag.Node
	status  nodeStatus
	pending int32 // unmet dependencies
	host    int32 // compute only: index into Simulator.hosts
	start   unit.Time
	finish  unit.Time // compute: scheduled end; comm: completion
	rate    unit.Rate // comm only, current allocation
	// comm only: the flow's group, and the scheduler's view of the flow.
	// fs.Remaining is the flow's live remaining volume and fs.Release its
	// start; no scheduler keeps a FlowState past its call, so the one value
	// serves every snapshot.
	group *groupState
	fs    *sched.FlowState
}

// groupState is one EchelonFlow's simulation state.
type groupState struct {
	gs    *sched.GroupState
	flows []*core.Flow // graph order, for building gs
	// refSet marks that the head flow has been released and gs.Reference
	// fixed.
	refSet bool
}

// hostState is one compute host: at most one compute runs on it at a time,
// and its ready computes wait in a heap, lowest Seq first.
type hostState struct {
	running int32 // the running compute's position, -1 when idle
	ready   minHeap[int]
	// dilation is the host's current straggle factor; 1 is healthy.
	dilation float64
	// queued marks the host as on the start list.
	queued bool
}

// Simulator runs one workload to completion. Create with New; a Simulator
// is single-use.
//
// Nodes live in a slice in graph order, and the event loop touches only the
// nodes whose state changes and the running computes and flows, never the
// whole graph; see the "Simulator event loop" paragraph of DESIGN.md.
type Simulator struct {
	opts   Options
	nodes  []nodeState // graph order
	hosts  []hostState // compute hosts in name order
	groups map[string]*sched.GroupState
	result *Result
	now    unit.Time
	// nextTick is the next fixed-cadence reschedule in IntervalOnly mode.
	nextTick unit.Time
	// pendingChanges indexes into opts.CapacityChanges.
	pendingChanges int
	// pendingDilations indexes into opts.Dilations.
	pendingDilations int
	// hostOf indexes hosts by name, for the dilations.
	hostOf map[string]int32
	// capChanged marks that a capacity change was applied since the last
	// scheduler run: even IntervalOnly mode must reschedule immediately,
	// since holding the stale rates can oversubscribe a shrunken port.
	capChanged bool
	// cache is the scheduler's plan cache when it exposes one, invalidated
	// eagerly on the events that change scheduling inputs. Nil-safe.
	cache *sched.PlanCache

	// Worklists. unblocked holds the nodes whose last dependency finished
	// since the last promotion; gated the waiting nodes whose dependencies
	// are met but whose NotBefore has not come, earliest first; releases the
	// comms promoted in the current wave; starts the hosts that may start a
	// compute (idle, with a ready one) in the next start step.
	unblocked []int32
	gated     minHeap[unit.Time]
	releases  []int32
	starts    []int32
	// computes are the running computes in no particular order; flows the
	// released flows, running and in graph order from each syncFlows until
	// a release or a finish changes them.
	computes []int32
	flows    []int32
	// finished collects the nodes completing at one instant; snap is the
	// scheduler input, rebuilt in place per call.
	finished []int32
	snap     sched.Snapshot
}

// New validates the workload and prepares a run. It leaves opts untouched:
// the change schedules are sorted in copies.
func New(opts Options) (*Simulator, error) {
	if opts.Graph == nil || opts.Net == nil || opts.Scheduler == nil {
		return nil, fmt.Errorf("sim: Graph, Net and Scheduler are required")
	}
	if err := opts.Graph.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxEvents <= 0 {
		opts.MaxEvents = 1e7
	}
	if opts.IntervalOnly && opts.Interval <= 0 {
		return nil, fmt.Errorf("sim: IntervalOnly requires a positive Interval")
	}
	for _, cc := range opts.CapacityChanges {
		if opts.Net.Host(cc.Host) == nil {
			return nil, fmt.Errorf("sim: capacity change references unknown host %q", cc.Host)
		}
		if cc.At < 0 || cc.Egress < 0 || cc.Ingress < 0 {
			return nil, fmt.Errorf("sim: invalid capacity change for host %q", cc.Host)
		}
	}
	opts.CapacityChanges = append([]CapacityChange(nil), opts.CapacityChanges...)
	sort.SliceStable(opts.CapacityChanges, func(i, j int) bool {
		return opts.CapacityChanges[i].At < opts.CapacityChanges[j].At
	})
	for _, d := range opts.Dilations {
		if opts.Net.Host(d.Host) == nil {
			return nil, fmt.Errorf("sim: dilation references unknown host %q", d.Host)
		}
		if d.At < 0 || d.Factor <= 0 {
			return nil, fmt.Errorf("sim: invalid dilation for host %q (at %v, factor %v)", d.Host, d.At, d.Factor)
		}
	}
	opts.Dilations = append([]DilationChange(nil), opts.Dilations...)
	sort.SliceStable(opts.Dilations, func(i, j int) bool {
		return opts.Dilations[i].At < opts.Dilations[j].At
	})

	g := opts.Graph
	all := g.Nodes()
	comms := 0
	for _, n := range all {
		if n.Kind == dag.Comm {
			comms++
		}
	}
	s := &Simulator{
		opts:   opts,
		nodes:  make([]nodeState, len(all)),
		groups: make(map[string]*sched.GroupState),
		result: &Result{
			Tasks:  make(map[string]Span, len(all)-comms),
			Flows:  make(map[string]FlowRecord, comms),
			Groups: make(map[string]GroupResult),
		},
	}
	// Sized up front: nodes and groups point into these.
	coreFlows := make([]core.Flow, 0, comms)
	states := make([]sched.FlowState, 0, comms)
	groups := make(map[string]*groupState)
	var groupOrder []string
	var hostNames []string
	hostOf := make(map[string]int32)
	for i, n := range all {
		ns := &s.nodes[i]
		ns.node, ns.pending, ns.host = n, int32(g.NumPred(i)), -1
		if ns.pending == 0 {
			s.unblocked = append(s.unblocked, int32(i))
		}
		if n.Kind != dag.Comm {
			if _, seen := hostOf[n.Host]; !seen {
				hostOf[n.Host] = 0
				hostNames = append(hostNames, n.Host)
			}
			continue
		}
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		ns.group = groups[gid]
		if ns.group == nil {
			ns.group = &groupState{}
			groups[gid] = ns.group
			groupOrder = append(groupOrder, gid)
		}
		coreFlows = append(coreFlows, core.Flow{ID: n.ID, Src: n.Src, Dst: n.Dst, Size: n.Size, Stage: n.Stage})
		f := &coreFlows[len(coreFlows)-1]
		ns.group.flows = append(ns.group.flows, f)
		states = append(states, sched.FlowState{Flow: f, GroupID: gid})
		ns.fs = &states[len(states)-1]
		if opts.Net.Host(n.Src) == nil || opts.Net.Host(n.Dst) == nil {
			return nil, fmt.Errorf("sim: flow %q references host missing from fabric", n.ID)
		}
	}
	for _, h := range hostNames {
		if opts.Net.Host(h) == nil {
			return nil, fmt.Errorf("sim: compute host %q missing from fabric", h)
		}
	}
	// Host indices follow name order, the order computes start in.
	sort.Strings(hostNames)
	s.hosts = make([]hostState, len(hostNames))
	for i, h := range hostNames {
		hostOf[h] = int32(i)
		s.hosts[i] = hostState{running: -1, dilation: 1}
	}
	for i := range s.nodes {
		if ns := &s.nodes[i]; ns.node.Kind == dag.Compute {
			ns.host = hostOf[ns.node.Host]
		}
	}
	s.hostOf = hostOf
	for _, gid := range groupOrder {
		grp := groups[gid]
		flows := grp.flows
		var arr core.Arrangement
		if a, ok := opts.Arrangements[gid]; ok {
			arr = a
		} else if len(flows) == 1 && gid == "flow:"+flows[0].ID {
			arr = core.Coflow{}
		} else {
			return nil, fmt.Errorf("sim: group %q has no arrangement", gid)
		}
		eg, err := core.New(gid, arr, flows...)
		if err != nil {
			return nil, err
		}
		if w, ok := opts.Weights[gid]; ok {
			if w <= 0 {
				return nil, fmt.Errorf("sim: group %q has non-positive weight %v", gid, w)
			}
			eg.Weight = w
		}
		grp.gs = &sched.GroupState{Group: eg}
		s.groups[gid] = grp.gs
	}
	s.snap.Groups = s.groups
	if pc, ok := opts.Scheduler.(interface{ PlanCache() *sched.PlanCache }); ok {
		s.cache = pc.PlanCache()
	}
	return s, nil
}

// Run executes the workload to completion and returns the result.
func (s *Simulator) Run() (*Result, error) {
	if s.result == nil {
		return nil, fmt.Errorf("sim: Simulator is single-use")
	}
	unfinished := len(s.nodes)
	for ev := 0; unfinished > 0; ev++ {
		if ev >= s.opts.MaxEvents {
			return nil, fmt.Errorf("sim: exceeded %d events (livelock?)", s.opts.MaxEvents)
		}
		s.applyCapacityChanges()
		s.applyDilations()
		finishedNow := s.settle()
		unfinished -= finishedNow
		if unfinished == 0 {
			break
		}

		anyFlows, err := s.maybeReschedule()
		if err != nil {
			return nil, err
		}

		tNext := s.nextEventTime(anyFlows)
		if tNext.IsInf() {
			return nil, s.deadlockError()
		}
		if tNext < s.now {
			tNext = s.now
		}
		s.advanceFlows(tNext)
		s.now = tNext
		unfinished -= s.completeAt()
	}
	res := s.result
	s.result = nil
	res.Makespan = s.now
	s.finalizeGroups(res)
	return res, nil
}

// settle fires all zero-time transitions at the current instant in waves of
// promote → release comms → start computes, until a wave changes nothing.
// Whatever a wave finishes at zero time (a zero-size flow, a zero-duration
// compute) readies its dependents only for the next wave. Returns how many
// nodes finished.
func (s *Simulator) settle() int {
	finished := 0
	for {
		s.promote()
		finished += s.release()
		finished += s.startComputes()
		if len(s.unblocked) == 0 && len(s.starts) == 0 {
			return finished
		}
	}
}

// promote readies the waiting nodes whose dependencies are met and whose
// NotBefore gate has come: a ready compute joins its host's heap, a ready
// comm the wave's releases, in graph order.
func (s *Simulator) promote() {
	gate := func(i int32) bool {
		return s.now >= s.nodes[i].node.NotBefore-unit.Time(unit.Eps)
	}
	for len(s.gated) > 0 && gate(s.gated[0].i) {
		s.ready(s.gated.pop().i)
	}
	for _, i := range s.unblocked {
		if gate(i) {
			s.ready(i)
		} else {
			s.gated.push(s.nodes[i].node.NotBefore, i)
		}
	}
	s.unblocked = s.unblocked[:0]
	slices.Sort(s.releases)
}

// ready marks node i ready and files it with its host or the releases.
func (s *Simulator) ready(i int32) {
	ns := &s.nodes[i]
	ns.status = ready
	if ns.node.Kind == dag.Comm {
		s.releases = append(s.releases, i)
		return
	}
	s.hosts[ns.host].ready.push(ns.node.Seq, i)
	s.queueHost(ns.host)
}

// queueHost puts host h on the start list.
func (s *Simulator) queueHost(h int32) {
	if !s.hosts[h].queued {
		s.hosts[h].queued = true
		s.starts = append(s.starts, h)
	}
}

// release starts the wave's ready comms in graph order and returns how many
// of them finished at once (zero size).
func (s *Simulator) release() int {
	finished := 0
	for _, i := range s.releases {
		ns := &s.nodes[i]
		gid := ns.fs.GroupID
		ns.status = running
		ns.start = s.now
		ns.fs.Release = s.now
		ns.fs.Remaining = ns.node.Size
		if !ns.group.refSet {
			ns.group.refSet = true
			ns.group.gs.Reference = s.now
		}
		s.cache.InvalidateGroup(gid) // flow set grew
		if s.opts.Events != nil {
			s.opts.Events.Append(telemetry.Event{Kind: telemetry.EventRelease,
				At: float64(s.now), Group: gid, Flow: ns.node.ID})
		}
		if ns.fs.Remaining.Zeroish() {
			s.finishFlow(i)
			finished++
			continue
		}
		s.flows = append(s.flows, i)
	}
	s.releases = s.releases[:0]
	return finished
}

// startComputes starts, in host-name order, the lowest-Seq ready compute on
// every idle host queued before this step, and returns how many finished at
// once (zero duration). A host freed by such a finish starts its next
// compute in the next wave.
func (s *Simulator) startComputes() int {
	if len(s.starts) == 0 {
		return 0
	}
	finished := 0
	// Hosts a finish below queues land past n, for the next wave.
	n := len(s.starts)
	slices.Sort(s.starts)
	for k := 0; k < n; k++ {
		h := s.starts[k]
		hs := &s.hosts[h]
		hs.queued = false
		if hs.running >= 0 || len(hs.ready) == 0 {
			continue
		}
		i := hs.ready.pop().i
		ns := &s.nodes[i]
		dur := s.dilatedDuration(ns.node.Duration, hs)
		ns.status = running
		ns.start = s.now
		ns.finish = s.now + dur
		if dur <= unit.Time(unit.Eps) {
			s.finishCompute(i)
			s.queueHost(h)
			finished++
			continue
		}
		hs.running = i
		s.computes = append(s.computes, i)
	}
	s.starts = s.starts[:copy(s.starts, s.starts[n:])]
	return finished
}

// syncFlows drops the finished flows from flows and restores the graph
// order that releases appending to it broke.
func (s *Simulator) syncFlows() {
	live := s.flows[:0]
	for _, i := range s.flows {
		if s.nodes[i].status == running {
			live = append(live, i)
		}
	}
	s.flows = live
	slices.Sort(s.flows)
}

// maybeReschedule invokes the scheduler over the currently transmitting
// flows, unless IntervalOnly mode holds the previous rates until the next
// tick. It reports whether any flows are in flight.
func (s *Simulator) maybeReschedule() (bool, error) {
	s.syncFlows()
	if len(s.flows) == 0 {
		return false, nil
	}
	if s.opts.IntervalOnly && s.now.Before(s.nextTick) && !s.capChanged {
		return true, nil // hold the stale allocation until the tick
	}
	if s.opts.IntervalOnly {
		// Re-arm the cadence from this run, whether it was a tick or a
		// forced capacity-change reschedule.
		s.nextTick = s.now + s.opts.Interval
	}
	s.capChanged = false
	s.result.SchedulerCalls++
	s.snap.Now = s.now
	s.snap.Flows = s.snap.Flows[:0]
	for _, i := range s.flows {
		s.snap.Flows = append(s.snap.Flows, s.nodes[i].fs)
	}
	rates, err := s.opts.Scheduler.Schedule(&s.snap, s.opts.Net)
	if err != nil {
		return false, fmt.Errorf("sim: scheduler %s at t=%v: %w", s.opts.Scheduler.Name(), s.now, err)
	}
	if s.opts.Events != nil {
		s.opts.Events.Append(telemetry.Event{Kind: telemetry.EventResched,
			At: float64(s.now), Detail: fmt.Sprintf("%d flows in flight", len(s.flows))})
	}
	for _, i := range s.flows {
		s.nodes[i].rate = rates[s.nodes[i].node.ID]
	}
	return true, nil
}

// nextEventTime finds the earliest future completion, release gate, or tick.
func (s *Simulator) nextEventTime(anyFlows bool) unit.Time {
	t := unit.Inf
	for _, i := range s.computes {
		t = unit.MinTime(t, s.nodes[i].finish)
	}
	for _, i := range s.flows {
		if ns := &s.nodes[i]; ns.rate > unit.Rate(unit.Eps) {
			t = unit.MinTime(t, s.now+ns.fs.Remaining.At(ns.rate))
		}
	}
	if len(s.gated) > 0 {
		// Timed release still in the future.
		t = unit.MinTime(t, s.gated[0].key)
	}
	if s.opts.Interval > 0 && anyFlows {
		t = unit.MinTime(t, s.now+s.opts.Interval)
	}
	if s.pendingChanges < len(s.opts.CapacityChanges) {
		t = unit.MinTime(t, s.opts.CapacityChanges[s.pendingChanges].At)
	}
	if s.pendingDilations < len(s.opts.Dilations) {
		t = unit.MinTime(t, s.opts.Dilations[s.pendingDilations].At)
	}
	return t
}

// applyCapacityChanges rewrites host capacities whose change time has come.
func (s *Simulator) applyCapacityChanges() {
	for s.pendingChanges < len(s.opts.CapacityChanges) {
		cc := s.opts.CapacityChanges[s.pendingChanges]
		if cc.At > s.now+unit.Time(unit.Eps) {
			return
		}
		// Validated in New; SetCapacity cannot fail here.
		_ = s.opts.Net.SetCapacity(cc.Host, cc.Egress, cc.Ingress)
		s.pendingChanges++
		s.capChanged = true
		s.cache.InvalidateAll()
	}
}

// dilatedDuration scales a compute duration by the host's current straggle
// factor. The guard keeps fault-free runs bit-identical to a build without
// dilation support.
func (s *Simulator) dilatedDuration(d unit.Time, hs *hostState) unit.Time {
	if f := hs.dilation; f != 1 {
		return unit.Time(float64(d) * f)
	}
	return d
}

// applyDilations applies straggle-factor changes whose time has come. A
// compute already running on the host has its remaining time rescaled by
// new/old, as if the processor clock changed mid-kernel. A host that runs
// no compute has nothing to slow down.
func (s *Simulator) applyDilations() {
	for s.pendingDilations < len(s.opts.Dilations) {
		dc := s.opts.Dilations[s.pendingDilations]
		if dc.At > s.now+unit.Time(unit.Eps) {
			return
		}
		s.pendingDilations++
		h, ok := s.hostOf[dc.Host]
		if !ok {
			continue
		}
		hs := &s.hosts[h]
		old := hs.dilation
		hs.dilation = dc.Factor
		if dc.Factor == old || hs.running < 0 {
			continue
		}
		ns := &s.nodes[hs.running]
		remaining := ns.finish - s.now
		if remaining > 0 {
			ns.finish = s.now + unit.Time(float64(remaining)*dc.Factor/old)
		}
	}
}

// advanceFlows integrates transmission progress up to tNext, in graph order,
// and records the rate timeline if requested.
func (s *Simulator) advanceFlows(tNext unit.Time) {
	dt := tNext - s.now
	if dt <= 0 {
		return
	}
	for _, i := range s.flows {
		ns := &s.nodes[i]
		if s.opts.RecordRates && ns.rate > unit.Rate(unit.Eps) {
			s.result.Rates = append(s.result.Rates, RateSegment{
				FlowID: ns.node.ID, From: s.now, To: tNext, Rate: ns.rate,
			})
		}
		ns.fs.Remaining -= ns.rate.Over(dt)
		if ns.fs.Remaining < 0 {
			ns.fs.Remaining = 0
		}
	}
}

// completeAt finishes, in graph order, every node whose completion lands at
// the current instant, returning the count.
func (s *Simulator) completeAt() int {
	s.finished = s.finished[:0]
	for _, i := range s.computes {
		if s.nodes[i].finish <= s.now+unit.Time(unit.Eps) {
			s.finished = append(s.finished, i)
		}
	}
	for _, i := range s.flows {
		if s.flowDone(&s.nodes[i]) {
			s.finished = append(s.finished, i)
		}
	}
	if len(s.finished) == 0 {
		return 0
	}
	slices.Sort(s.finished)
	for _, i := range s.finished {
		if ns := &s.nodes[i]; ns.node.Kind == dag.Compute {
			s.hosts[ns.host].running = -1
			s.queueHost(ns.host)
			s.finishCompute(i)
		} else {
			s.finishFlow(i)
		}
	}
	live := s.computes[:0]
	for _, i := range s.computes {
		if s.nodes[i].status == running {
			live = append(live, i)
		}
	}
	s.computes = live
	return len(s.finished)
}

// flowDone applies the relative completion tolerance.
func (s *Simulator) flowDone(ns *nodeState) bool {
	tol := unit.Bytes(unit.Eps) * unit.Bytes(1+float64(ns.node.Size))
	return ns.fs.Remaining <= tol
}

func (s *Simulator) finishCompute(i int32) {
	ns := &s.nodes[i]
	ns.status = done
	s.result.Tasks[ns.node.ID] = Span{Start: ns.start, End: ns.finish}
	s.propagate(i)
}

func (s *Simulator) finishFlow(i int32) {
	ns := &s.nodes[i]
	ns.status = done
	ns.fs.Remaining = 0
	ns.finish = s.now
	gs := ns.group.gs
	deadline := gs.Group.Arrangement.Deadline(ns.node.Stage, gs.Reference)
	tard := ns.finish - deadline
	if tard > gs.AchievedTardiness {
		gs.AchievedTardiness = tard
	}
	s.cache.InvalidateGroup(ns.fs.GroupID) // flow set shrank, floor may have moved
	s.result.Flows[ns.node.ID] = FlowRecord{
		GroupID: ns.fs.GroupID, Release: ns.start, Finish: ns.finish,
		Deadline: deadline, Size: ns.node.Size,
	}
	if s.opts.Events != nil {
		s.opts.Events.Append(telemetry.Event{Kind: telemetry.EventFinish,
			At: float64(s.now), Group: ns.fs.GroupID, Flow: ns.node.ID,
			Tardiness: float64(tard)})
	}
	s.propagate(i)
}

// propagate decrements dependents' pending counts; a dependent left with
// none awaits the next promotion.
func (s *Simulator) propagate(i int32) {
	for _, d := range s.opts.Graph.Succ(int(i)) {
		if s.nodes[d].pending--; s.nodes[d].pending == 0 {
			s.unblocked = append(s.unblocked, d)
		}
	}
}

// finalizeGroups fills per-group results from flow records.
func (s *Simulator) finalizeGroups(res *Result) {
	for gid, gs := range s.groups {
		gr := GroupResult{Group: gs.Group, Reference: gs.Reference, Tardiness: gs.AchievedTardiness}
		for _, f := range gs.Group.Flows {
			if rec, ok := res.Flows[f.ID]; ok && rec.Finish > gr.CompletionTime {
				gr.CompletionTime = rec.Finish
			}
		}
		res.Groups[gid] = gr
	}
}

// deadlockError explains why no event can fire.
func (s *Simulator) deadlockError() error {
	var stuck []string
	for i := range s.nodes {
		ns := &s.nodes[i]
		if ns.status != done {
			stuck = append(stuck, fmt.Sprintf("%s(%v)", ns.node.ID, ns.status))
		}
		if len(stuck) >= 8 {
			break
		}
	}
	return fmt.Errorf("sim: no schedulable event at t=%v; stuck nodes: %v (scheduler starved all flows?)", s.now, stuck)
}

// keyed is a heap entry: node i under key.
type keyed[K cmp.Ordered] struct {
	key K
	i   int32
}

// minHeap is a binary min-heap of nodes by key, ties broken by graph
// position, so the order it yields is total.
type minHeap[K cmp.Ordered] []keyed[K]

func (h minHeap[K]) less(a, b int) bool {
	return h[a].key < h[b].key || h[a].key == h[b].key && h[a].i < h[b].i
}

func (h *minHeap[K]) push(key K, i int32) {
	*h = append(*h, keyed[K]{key, i})
	for c := len(*h) - 1; c > 0; {
		p := (c - 1) / 2
		if !h.less(c, p) {
			return
		}
		(*h)[p], (*h)[c] = (*h)[c], (*h)[p]
		c = p
	}
}

func (h *minHeap[K]) pop() keyed[K] {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	for p := 0; ; {
		m := p
		if l := 2*p + 1; l < last && h.less(l, m) {
			m = l
		}
		if r := 2*p + 2; r < last && h.less(r, m) {
			m = r
		}
		if m == p {
			return top
		}
		(*h)[p], (*h)[m] = (*h)[m], (*h)[p]
		p = m
	}
}
