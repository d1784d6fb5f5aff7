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
	"fmt"
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

// nodeState is mutable per-node simulation state.
type nodeState struct {
	node      *dag.Node
	status    nodeStatus
	pending   int // unmet dependencies
	start     unit.Time
	finish    unit.Time
	remaining unit.Bytes // comm only
	rate      unit.Rate  // comm only, current allocation
	groupID   string     // comm only
}

// Simulator runs one workload to completion. Create with New; a Simulator
// is single-use.
type Simulator struct {
	opts   Options
	nodes  map[string]*nodeState
	order  []string // deterministic iteration
	groups map[string]*sched.GroupState
	refSet map[string]bool
	result *Result
	now    unit.Time
	// nextTick is the next fixed-cadence reschedule in IntervalOnly mode.
	nextTick unit.Time
	// pendingChanges indexes into opts.CapacityChanges.
	pendingChanges int
	// pendingDilations indexes into opts.Dilations; dilation holds each
	// host's current straggle factor (absent means 1).
	pendingDilations int
	dilation         map[string]float64
	// capChanged marks that a capacity change was applied since the last
	// scheduler run: even IntervalOnly mode must reschedule immediately,
	// since holding the stale rates can oversubscribe a shrunken port.
	capChanged bool
	// cache is the scheduler's plan cache when it exposes one, invalidated
	// eagerly on the events that change scheduling inputs. Nil-safe.
	cache *sched.PlanCache
}

// New validates the workload and prepares a run.
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
	sort.SliceStable(opts.Dilations, func(i, j int) bool {
		return opts.Dilations[i].At < opts.Dilations[j].At
	})
	s := &Simulator{
		opts:   opts,
		nodes:  make(map[string]*nodeState),
		groups: make(map[string]*sched.GroupState),
		refSet: make(map[string]bool),
		result: &Result{
			Tasks:  make(map[string]Span),
			Flows:  make(map[string]FlowRecord),
			Groups: make(map[string]GroupResult),
		},
	}
	// Per-group flow lists for building core.EchelonFlow values.
	groupFlows := make(map[string][]*core.Flow)
	var groupOrder []string
	for _, n := range opts.Graph.Nodes() {
		ns := &nodeState{node: n, pending: len(opts.Graph.Deps(n.ID))}
		s.nodes[n.ID] = ns
		s.order = append(s.order, n.ID)
		if n.Kind != dag.Comm {
			continue
		}
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		ns.groupID = gid
		if _, seen := groupFlows[gid]; !seen {
			groupOrder = append(groupOrder, gid)
		}
		groupFlows[gid] = append(groupFlows[gid], &core.Flow{
			ID: n.ID, Src: n.Src, Dst: n.Dst, Size: n.Size, Stage: n.Stage,
		})
		if opts.Net.Host(n.Src) == nil || opts.Net.Host(n.Dst) == nil {
			return nil, fmt.Errorf("sim: flow %q references host missing from fabric", n.ID)
		}
	}
	for _, h := range hostsOf(opts.Graph) {
		if opts.Net.Host(h) == nil {
			return nil, fmt.Errorf("sim: compute host %q missing from fabric", h)
		}
	}
	for _, gid := range groupOrder {
		flows := groupFlows[gid]
		var arr core.Arrangement
		if a, ok := opts.Arrangements[gid]; ok {
			arr = a
		} else if len(flows) == 1 && gid == "flow:"+flows[0].ID {
			arr = core.Coflow{}
		} else {
			return nil, fmt.Errorf("sim: group %q has no arrangement", gid)
		}
		g, err := core.New(gid, arr, flows...)
		if err != nil {
			return nil, err
		}
		if w, ok := opts.Weights[gid]; ok {
			if w <= 0 {
				return nil, fmt.Errorf("sim: group %q has non-positive weight %v", gid, w)
			}
			g.Weight = w
		}
		s.groups[gid] = &sched.GroupState{Group: g}
	}
	if pc, ok := opts.Scheduler.(interface{ PlanCache() *sched.PlanCache }); ok {
		s.cache = pc.PlanCache()
	}
	return s, nil
}

// hostsOf collects the compute hosts a graph references.
func hostsOf(g *dag.Graph) []string {
	seen := make(map[string]bool)
	var out []string
	for _, n := range g.Nodes() {
		if n.Kind == dag.Compute && !seen[n.Host] {
			seen[n.Host] = true
			out = append(out, n.Host)
		}
	}
	return out
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

// settle fires all zero-time transitions at the current instant: readiness
// propagation, compute starts, zero-duration compute completions, flow
// releases, and zero-size flow completions. Returns how many nodes finished.
func (s *Simulator) settle() int {
	finished := 0
	for changed := true; changed; {
		changed = false
		// Promote nodes whose dependencies are met.
		for _, id := range s.order {
			ns := s.nodes[id]
			if ns.status == waiting && ns.pending == 0 && s.now >= ns.node.NotBefore-unit.Time(unit.Eps) {
				ns.status = ready
				changed = true
			}
		}
		// Release ready comm nodes.
		for _, id := range s.order {
			ns := s.nodes[id]
			if ns.status != ready || ns.node.Kind != dag.Comm {
				continue
			}
			ns.status = running
			ns.start = s.now
			ns.remaining = ns.node.Size
			if !s.refSet[ns.groupID] {
				s.refSet[ns.groupID] = true
				s.groups[ns.groupID].Reference = s.now
			}
			s.cache.InvalidateGroup(ns.groupID) // flow set grew
			if s.opts.Events != nil {
				s.opts.Events.Append(telemetry.Event{Kind: telemetry.EventRelease,
					At: float64(s.now), Group: ns.groupID, Flow: id})
			}
			changed = true
			if ns.remaining.Zeroish() {
				s.finishFlow(ns)
				finished++
			}
		}
		// Start computes on idle hosts, lowest Seq first.
		busy := make(map[string]bool)
		for _, id := range s.order {
			ns := s.nodes[id]
			if ns.node.Kind == dag.Compute && ns.status == running {
				busy[ns.node.Host] = true
			}
		}
		candidates := make(map[string]*nodeState)
		for _, id := range s.order {
			ns := s.nodes[id]
			if ns.status != ready || ns.node.Kind != dag.Compute || busy[ns.node.Host] {
				continue
			}
			best, ok := candidates[ns.node.Host]
			if !ok || ns.node.Seq < best.node.Seq {
				candidates[ns.node.Host] = ns
			}
		}
		// Deterministic start order.
		hosts := make([]string, 0, len(candidates))
		for h := range candidates {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		for _, h := range hosts {
			ns := candidates[h]
			dur := s.dilatedDuration(ns.node.Duration, h)
			ns.status = running
			ns.start = s.now
			ns.finish = s.now + dur
			changed = true
			if dur <= unit.Time(unit.Eps) {
				s.finishCompute(ns)
				finished++
			}
		}
	}
	return finished
}

// maybeReschedule invokes the scheduler over the currently transmitting
// flows, unless IntervalOnly mode holds the previous rates until the next
// tick. It reports whether any flows are in flight.
func (s *Simulator) maybeReschedule() (bool, error) {
	snap := &sched.Snapshot{Now: s.now, Groups: s.groups}
	for _, id := range s.order {
		ns := s.nodes[id]
		if ns.node.Kind == dag.Comm && ns.status == running {
			snap.Flows = append(snap.Flows, &sched.FlowState{
				Flow:      s.groups[ns.groupID].Group.Flow(id),
				GroupID:   ns.groupID,
				Remaining: ns.remaining,
				Release:   ns.start,
			})
		}
	}
	if len(snap.Flows) == 0 {
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
	rates, err := s.opts.Scheduler.Schedule(snap, s.opts.Net)
	if err != nil {
		return false, fmt.Errorf("sim: scheduler %s at t=%v: %w", s.opts.Scheduler.Name(), s.now, err)
	}
	if s.opts.Events != nil {
		s.opts.Events.Append(telemetry.Event{Kind: telemetry.EventResched,
			At: float64(s.now), Detail: fmt.Sprintf("%d flows in flight", len(snap.Flows))})
	}
	for _, fs := range snap.Flows {
		s.nodes[fs.Flow.ID].rate = rates[fs.Flow.ID]
	}
	return true, nil
}

// nextEventTime finds the earliest future completion, release gate, or tick.
func (s *Simulator) nextEventTime(anyFlows bool) unit.Time {
	t := unit.Inf
	for _, id := range s.order {
		ns := s.nodes[id]
		switch {
		case ns.node.Kind == dag.Compute && ns.status == running:
			t = unit.MinTime(t, ns.finish)
		case ns.node.Kind == dag.Comm && ns.status == running && ns.rate > unit.Rate(unit.Eps):
			t = unit.MinTime(t, s.now+ns.remaining.At(ns.rate))
		case ns.status == waiting && ns.pending == 0 && ns.node.NotBefore > s.now:
			// Timed release still in the future.
			t = unit.MinTime(t, ns.node.NotBefore)
		}
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
func (s *Simulator) dilatedDuration(d unit.Time, host string) unit.Time {
	if f, ok := s.dilation[host]; ok && f != 1 {
		return unit.Time(float64(d) * f)
	}
	return d
}

// applyDilations applies straggle-factor changes whose time has come. A
// compute already running on the host has its remaining time rescaled by
// new/old, as if the processor clock changed mid-kernel.
func (s *Simulator) applyDilations() {
	for s.pendingDilations < len(s.opts.Dilations) {
		dc := s.opts.Dilations[s.pendingDilations]
		if dc.At > s.now+unit.Time(unit.Eps) {
			return
		}
		if s.dilation == nil {
			s.dilation = make(map[string]float64)
		}
		old := 1.0
		if f, ok := s.dilation[dc.Host]; ok {
			old = f
		}
		s.dilation[dc.Host] = dc.Factor
		s.pendingDilations++
		if dc.Factor == old {
			continue
		}
		for _, id := range s.order {
			ns := s.nodes[id]
			if ns.node.Kind == dag.Compute && ns.status == running && ns.node.Host == dc.Host {
				remaining := ns.finish - s.now
				if remaining > 0 {
					ns.finish = s.now + unit.Time(float64(remaining)*dc.Factor/old)
				}
			}
		}
	}
}

// advanceFlows integrates transmission progress up to tNext and records the
// rate timeline if requested.
func (s *Simulator) advanceFlows(tNext unit.Time) {
	dt := tNext - s.now
	if dt <= 0 {
		return
	}
	for _, id := range s.order {
		ns := s.nodes[id]
		if ns.node.Kind != dag.Comm || ns.status != running {
			continue
		}
		if s.opts.RecordRates && ns.rate > unit.Rate(unit.Eps) {
			s.result.Rates = append(s.result.Rates, RateSegment{
				FlowID: id, From: s.now, To: tNext, Rate: ns.rate,
			})
		}
		ns.remaining -= ns.rate.Over(dt)
		if ns.remaining < 0 {
			ns.remaining = 0
		}
	}
}

// completeAt finishes every node whose completion lands at the current
// instant, returning the count.
func (s *Simulator) completeAt() int {
	finished := 0
	for _, id := range s.order {
		ns := s.nodes[id]
		switch {
		case ns.node.Kind == dag.Compute && ns.status == running && ns.finish <= s.now+unit.Time(unit.Eps):
			s.finishCompute(ns)
			finished++
		case ns.node.Kind == dag.Comm && ns.status == running && s.flowDone(ns):
			s.finishFlow(ns)
			finished++
		}
	}
	return finished
}

// flowDone applies the relative completion tolerance.
func (s *Simulator) flowDone(ns *nodeState) bool {
	tol := unit.Bytes(unit.Eps) * unit.Bytes(1+float64(ns.node.Size))
	return ns.remaining <= tol
}

func (s *Simulator) finishCompute(ns *nodeState) {
	ns.status = done
	s.result.Tasks[ns.node.ID] = Span{Start: ns.start, End: ns.finish}
	s.propagate(ns.node.ID)
}

func (s *Simulator) finishFlow(ns *nodeState) {
	ns.status = done
	ns.remaining = 0
	ns.finish = s.now
	gs := s.groups[ns.groupID]
	deadline := gs.Group.Arrangement.Deadline(ns.node.Stage, gs.Reference)
	tard := ns.finish - deadline
	if tard > gs.AchievedTardiness {
		gs.AchievedTardiness = tard
	}
	s.cache.InvalidateGroup(ns.groupID) // flow set shrank, floor may have moved
	s.result.Flows[ns.node.ID] = FlowRecord{
		GroupID: ns.groupID, Release: ns.start, Finish: ns.finish,
		Deadline: deadline, Size: ns.node.Size,
	}
	if s.opts.Events != nil {
		s.opts.Events.Append(telemetry.Event{Kind: telemetry.EventFinish,
			At: float64(s.now), Group: ns.groupID, Flow: ns.node.ID,
			Tardiness: float64(tard)})
	}
	s.propagate(ns.node.ID)
}

// propagate decrements dependents' pending counts.
func (s *Simulator) propagate(id string) {
	for _, dep := range s.opts.Graph.Dependents(id) {
		s.nodes[dep].pending--
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
	for _, id := range s.order {
		ns := s.nodes[id]
		if ns.status != done {
			stuck = append(stuck, fmt.Sprintf("%s(%v)", id, ns.status))
		}
		if len(stuck) >= 8 {
			break
		}
	}
	return fmt.Errorf("sim: no schedulable event at t=%v; stuck nodes: %v (scheduler starved all flows?)", s.now, stuck)
}
