package sched

import (
	"errors"
	"sort"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// FlowState is a scheduler's view of one released, unfinished flow at a
// scheduling instant.
type FlowState struct {
	Flow      *core.Flow
	GroupID   string
	Remaining unit.Bytes
	// Release is the time the flow became transmittable (its start time in
	// the paper's terms).
	Release unit.Time
}

// GroupState carries the per-EchelonFlow context a scheduler needs.
type GroupState struct {
	Group *core.EchelonFlow
	// Reference is the observed reference time r: the start time of the
	// group's head flow (§3.1). It is fixed the moment the head flow is
	// released.
	Reference unit.Time
	// AchievedTardiness is the largest tardiness among the group's already
	// finished flows. A group cannot do better than this, so schedulers use
	// it as the floor when minimizing the group's tardiness.
	AchievedTardiness unit.Time
}

// Snapshot is the input to a scheduling decision: the current time, every
// released unfinished flow, and the groups they belong to. Every FlowState
// must reference a group present in Groups.
type Snapshot struct {
	Now    unit.Time
	Flows  []*FlowState
	Groups map[string]*GroupState
	// Stop, when non-nil, bounds the pass: EchelonMADD (and DeltaEchelon
	// through it) calls it at every group boundary — every deadline class
	// under GlobalEDF — and returns ErrStopped once it reports true, having
	// captured no incremental state. Schedulers that plan in one step ignore
	// it. A field rather than an interface method, so wrappers that forward
	// Schedule and Apply carry it unawares.
	Stop func() bool
}

// ErrStopped is returned by a pass that Snapshot.Stop cut short.
var ErrStopped = errors.New("sched: pass stopped by its budget")

// stopped reports whether the pass must stop at this boundary.
func (s *Snapshot) stopped() bool { return s.Stop != nil && s.Stop() }

// Validate checks internal consistency of the snapshot: every flow has a
// core flow, a unique ID, no negative remaining volume, and a group in
// Groups that lists it. It makes the checks of the grouping a planning pass
// builds, on a pooled link table's grouping, so a warm Validate allocates
// nothing.
func (s *Snapshot) Validate() error {
	lt := linkTables.Get().(*linkTable)
	defer func() {
		lt.grp.reset()
		linkTables.Put(lt)
	}()
	return lt.grp.build(s, s.Flows)
}

// Deadline returns the flow's ideal finish time under its group's
// arrangement and observed reference time.
func (s *Snapshot) Deadline(fs *FlowState) unit.Time {
	g := s.Groups[fs.GroupID]
	return g.Group.Arrangement.Deadline(fs.Flow.Stage, g.Reference)
}

// Scheduler assigns transmission rates to the snapshot's flows. The returned
// map contains an entry (possibly zero) for every flow in the snapshot, and
// the allocation is always feasible on the given network.
type Scheduler interface {
	// Name identifies the scheduler in traces and experiment tables.
	Name() string
	// Schedule computes the allocation for the instant snap.Now. It is
	// re-invoked by the runtime on every flow arrival and departure.
	Schedule(snap *Snapshot, net fabric.Fabric) (map[string]unit.Rate, error)
}

// requestsOf converts flow states into fabric requests, preserving order.
func requestsOf(flows []*FlowState) []fabric.Request {
	reqs := make([]fabric.Request, len(flows))
	for i, fs := range flows {
		reqs[i] = fabric.Request{ID: fs.Flow.ID, Src: fs.Flow.Src, Dst: fs.Flow.Dst}
	}
	return reqs
}

// sortedCopy returns the snapshot's flows sorted by the given less function
// with flow-ID tie-breaking, leaving the snapshot untouched.
func sortedCopy(flows []*FlowState, less func(a, b *FlowState) bool) []*FlowState {
	out := append([]*FlowState(nil), flows...)
	sort.SliceStable(out, func(i, j int) bool {
		if less(out[i], out[j]) {
			return true
		}
		if less(out[j], out[i]) {
			return false
		}
		return out[i].Flow.ID < out[j].Flow.ID
	})
	return out
}

// zeroFill returns a rate map with an explicit zero for every flow, so
// callers can distinguish "scheduled at zero" from "missing".
func zeroFill(snap *Snapshot) map[string]unit.Rate {
	rates := make(map[string]unit.Rate, len(snap.Flows))
	for _, fs := range snap.Flows {
		rates[fs.Flow.ID] = 0
	}
	return rates
}
