package sched

import (
	"errors"
	"sort"
	"sync"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// Delta describes what changed since the last successful scheduling pass:
// the set of groups whose released-flow membership was touched by the event
// (a flow release/finish/resume, or a single-group register/unregister).
// Groups absent from the set are asserted unchanged — a drifted group that
// is not declared forces a full reschedule rather than a wrong patch.
type Delta struct {
	Groups []string
}

// DeltaScheduler is the event-driven incremental API. Apply patches the
// previous allocation for one event instead of re-solving every group. The
// ok result is false when the scheduler cannot prove the patch equivalent
// to a full Schedule (cold state, fabric generation bump, undeclared drift,
// planning failure, ...); the caller must then fall back to Schedule, which
// also rebuilds the incremental state.
type DeltaScheduler interface {
	Scheduler
	// Apply returns a complete rate map (an entry for every snapshot flow)
	// or ok=false. When ok is true the map is feasible on net and — for
	// every flow of a replanned group — bit-equal to what a full Schedule
	// of the same snapshot would assign. Flows of untouched groups keep
	// their previous rates (held until their group's next event or a full
	// reschedule).
	Apply(snap *Snapshot, net fabric.Fabric, d Delta) (map[string]unit.Rate, bool, error)
	// Prime installs incremental state from an externally known allocation
	// (e.g. a journal snapshot's restored rates) without scheduling, so a
	// restored coordinator continues on the delta path bit-for-bit.
	Prime(snap *Snapshot, net fabric.Fabric, rates map[string]unit.Rate)
}

// DeltaOutcome reports what the last Apply call did, for telemetry and the
// delta-vs-full differential oracle.
type DeltaOutcome struct {
	// Applied is true when Apply produced a patch (ok=true).
	Applied bool
	// Reason names the fallback cause when Applied is false.
	Reason string
	// Held counts the flows that kept their previous rate.
	Held int
	// Replanned lists the groups (sorted) whose flows were re-planned.
	Replanned []string
}

// deltaGroup is the tracked footprint of one group at the last pass. Links
// are distinct capacity pools: two groups interact in planning only when
// they share a fabric.LinkKey.
type deltaGroup struct {
	flowIDs []string // sorted
	ports   map[fabric.LinkKey]struct{}
}

// deltaState is the incremental scheduler's view of the last successful
// pass: the allocation it committed and each group's membership/footprint.
type deltaState struct {
	net    fabric.Fabric
	netGen uint64
	now    unit.Time
	rates  map[string]unit.Rate
	groups map[string]*deltaGroup
}

// DeltaEchelon wraps EchelonMADD with the incremental Apply path. Schedule
// forwards to the inner scheduler and (re)captures incremental state, so any
// fallback self-heals on the next full pass. The wrapper shares the inner
// scheduler's PlanCache: cached solo rankings are valid for whichever path
// computes them, because both store only values a cold planner would produce.
//
// Why patching a component is exact: EchelonMADD plans each group against
// per-link free-capacity timelines, then backfills and clamps per link.
// Every step reads and writes only the links the involved flows touch (as
// enumerated by the fabric's FlowLinks), so two groups whose flows share no
// link never influence each other's rates. Apply therefore replans exactly
// the transitive closure of link-sharing groups around the changed ones —
// the same allocate pass Schedule runs, over a link table of the component's
// flows alone (see linkTable) — and holds everything else. Held flows keep
// rates from a pass where they were feasible on the same fabric generation,
// and no replanned flow shares a link with them — the merged map stays
// feasible.
type DeltaEchelon struct {
	inner EchelonMADD

	mu   sync.Mutex
	st   *deltaState
	last DeltaOutcome
}

// NewDelta wraps an EchelonMADD scheduler with the incremental path.
func NewDelta(inner EchelonMADD) *DeltaEchelon {
	return &DeltaEchelon{inner: inner}
}

// Name implements Scheduler.
func (d *DeltaEchelon) Name() string { return d.inner.Name() + "+delta" }

// PlanCache exposes the inner scheduler's cache for eager invalidation.
func (d *DeltaEchelon) PlanCache() *PlanCache { return d.inner.Cache }

// Inner returns the wrapped scheduler (for tests and experiment tables).
func (d *DeltaEchelon) Inner() EchelonMADD { return d.inner }

// LastOutcome reports what the most recent Apply did.
func (d *DeltaEchelon) LastOutcome() DeltaOutcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Schedule implements Scheduler: a full pass that also rebuilds the
// incremental state.
func (d *DeltaEchelon) Schedule(snap *Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	rates, err := d.inner.Schedule(snap, net)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.st = captureDeltaState(snap, net, rates)
	d.mu.Unlock()
	return rates, nil
}

// Prime implements DeltaScheduler.
func (d *DeltaEchelon) Prime(snap *Snapshot, net fabric.Fabric, rates map[string]unit.Rate) {
	if snap == nil || net == nil || snap.Validate() != nil {
		return
	}
	d.mu.Lock()
	d.st = captureDeltaState(snap, net, rates)
	d.mu.Unlock()
}

// Apply implements DeltaScheduler. See DeltaEchelon for the exactness
// argument; every return path records a DeltaOutcome.
func (d *DeltaEchelon) Apply(snap *Snapshot, net fabric.Fabric, delta Delta) (map[string]unit.Rate, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fall := func(reason string) (map[string]unit.Rate, bool, error) {
		d.last = DeltaOutcome{Applied: false, Reason: reason}
		return nil, false, nil
	}
	st := d.st
	switch {
	case st == nil:
		return fall("cold-state")
	case d.inner.GlobalEDF:
		// Global EDF interleaves every group's classes on one shared
		// timeline; there is no link-local component to patch.
		return fall("global-edf")
	case st.net != net || st.netGen != net.Generation():
		return fall("fabric-generation")
	}
	if err := snap.Validate(); err != nil {
		return fall("invalid-snapshot")
	}
	if snap.Now < st.now {
		return fall("time-regression")
	}

	ids, byGroup := groupedFlows(snap)
	inDelta := make(map[string]bool, len(delta.Groups))
	for _, id := range delta.Groups {
		inDelta[id] = true
	}

	// Any membership drift outside the declared delta voids the patch.
	for _, id := range ids {
		prev, tracked := st.groups[id]
		if !tracked {
			if !inDelta[id] {
				return fall("untracked-group")
			}
			continue
		}
		if !inDelta[id] && !equalFlowIDs(prev.flowIDs, byGroup[id]) {
			return fall("undeclared-drift")
		}
	}
	for id := range st.groups {
		if _, live := byGroup[id]; !live && !inDelta[id] {
			return fall("undeclared-drift")
		}
	}

	// Link footprints. Tracked groups outside the delta just proved their
	// membership unchanged, and a topology mutation would have bumped the
	// fabric generation — their footprint from the last pass is current, so
	// reuse it. Only the declared groups compute fresh link sets.
	gports := make(map[string]map[fabric.LinkKey]struct{}, len(ids))
	for _, id := range ids {
		if prev, tracked := st.groups[id]; tracked && !inDelta[id] {
			gports[id] = prev.ports
			continue
		}
		ports := make(map[fabric.LinkKey]struct{}, 2*len(byGroup[id]))
		addFlowPorts(ports, net, byGroup[id])
		gports[id] = ports
	}

	// Seed the affected-link set from the changed groups' footprints — both
	// the previous one (covers finished/unregistered flows) and the current
	// one (covers newly released flows) — then close over current groups
	// sharing any of those links.
	seeds := make(map[fabric.LinkKey]struct{})
	for _, id := range delta.Groups {
		if prev := st.groups[id]; prev != nil {
			for pk := range prev.ports {
				seeds[pk] = struct{}{}
			}
		}
		for pk := range gports[id] {
			seeds[pk] = struct{}{}
		}
	}
	comp := make(map[string]bool, len(ids))
	for changed := true; changed; {
		changed = false
		for _, id := range ids {
			if comp[id] || !intersectsPorts(gports[id], seeds) {
				continue
			}
			comp[id] = true
			for pk := range gports[id] {
				seeds[pk] = struct{}{}
			}
			changed = true
		}
	}
	compIDs := make([]string, 0, len(comp))
	for _, id := range ids {
		if comp[id] {
			compIDs = append(compIDs, id)
		}
	}
	if len(compIDs) == len(ids) && len(ids) > 1 {
		// The event touches everything: a full pass does the same work and
		// recaptures the incremental state.
		return fall("component-spans-all")
	}

	// Hold every flow outside the component at its previous rate.
	rates := make(map[string]unit.Rate, len(snap.Flows))
	compFlows := make([]*FlowState, 0, len(snap.Flows))
	for _, fs := range snap.Flows {
		if comp[fs.GroupID] {
			compFlows = append(compFlows, fs)
			continue
		}
		r, ok := st.rates[fs.Flow.ID]
		if !ok {
			return fall("missing-held-rate")
		}
		rates[fs.Flow.ID] = r
	}
	held := len(snap.Flows) - len(compFlows)

	// Replan the component exactly as Schedule plans the full set — the same
	// allocate pass, over a link table of the component's flows only. Note:
	// no prune — the component is not the full live-group set, so pruning
	// here would evict live entries (the hazard PlanCache.prune guards
	// against).
	lt := acquireLinkTable(snap, net, compFlows)
	defer lt.release()
	if err := d.inner.allocate(lt, snap, lt.groups(snap)); err != nil {
		if errors.Is(err, ErrStopped) {
			d.last = DeltaOutcome{Reason: "stopped"}
			return nil, false, err
		}
		return fall("plan-error")
	}
	if !lt.feasible() {
		return fall("infeasible-patch")
	}
	lt.writeRates(rates)

	// Incremental state update: only the declared groups' membership (and so
	// footprint) changed since the last pass; every other group's record
	// carries over untouched. The freshly built rate map becomes the new
	// state — the caller gets its own copy.
	st.now = snap.Now
	st.rates = rates
	for _, id := range delta.Groups {
		flows := byGroup[id]
		if len(flows) == 0 {
			delete(st.groups, id)
			continue
		}
		g := &deltaGroup{flowIDs: make([]string, 0, len(flows)), ports: gports[id]}
		for _, fs := range flows {
			g.flowIDs = append(g.flowIDs, fs.Flow.ID)
		}
		sort.Strings(g.flowIDs)
		st.groups[id] = g
	}
	out := make(map[string]unit.Rate, len(rates))
	for id, r := range rates {
		out[id] = r
	}
	d.last = DeltaOutcome{Applied: true, Replanned: append([]string(nil), compIDs...), Held: held}
	sort.Strings(d.last.Replanned)
	return out, true, nil
}

// captureDeltaState records the allocation and per-group footprints of a
// successful pass.
func captureDeltaState(snap *Snapshot, net fabric.Fabric, rates map[string]unit.Rate) *deltaState {
	st := &deltaState{
		net:    net,
		netGen: net.Generation(),
		now:    snap.Now,
		rates:  make(map[string]unit.Rate, len(rates)),
		groups: make(map[string]*deltaGroup),
	}
	for id, r := range rates {
		st.rates[id] = r
	}
	_, byGroup := groupedFlows(snap)
	for id, flows := range byGroup {
		g := &deltaGroup{
			flowIDs: make([]string, 0, len(flows)),
			ports:   make(map[fabric.LinkKey]struct{}, 2*len(flows)),
		}
		for _, fs := range flows {
			g.flowIDs = append(g.flowIDs, fs.Flow.ID)
		}
		sort.Strings(g.flowIDs)
		addFlowPorts(g.ports, net, flows)
		st.groups[id] = g
	}
	return st
}

// addFlowPorts adds every link the flows touch to the set.
func addFlowPorts(set map[fabric.LinkKey]struct{}, net fabric.Fabric, flows []*FlowState) {
	var lbuf []fabric.LinkKey
	for _, fs := range flows {
		lbuf = net.FlowLinks(fs.Flow.Src, fs.Flow.Dst, lbuf[:0])
		for _, k := range lbuf {
			set[k] = struct{}{}
		}
	}
}

func intersectsPorts(a map[fabric.LinkKey]struct{}, b map[fabric.LinkKey]struct{}) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for pk := range a {
		if _, ok := b[pk]; ok {
			return true
		}
	}
	return false
}

// equalFlowIDs reports whether sorted prev equals the flows' ID set. Flow
// IDs are unique within a validated snapshot, so equal lengths plus every
// current ID present in prev implies set equality.
func equalFlowIDs(prev []string, flows []*FlowState) bool {
	if len(prev) != len(flows) {
		return false
	}
	for _, fs := range flows {
		i := sort.SearchStrings(prev, fs.Flow.ID)
		if i == len(prev) || prev[i] != fs.Flow.ID {
			return false
		}
	}
	return true
}
