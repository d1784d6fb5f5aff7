package sched

import (
	"errors"
	"slices"
	"sort"
	"strings"
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
// fallback self-heals on the next full pass.
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
	a    applyScratch
}

// applyScratch is Apply's working state, reused across calls under mu so
// that a warm Apply allocates nothing but the rate map it returns.
type applyScratch struct {
	grp     grouping     // the snapshot's flows by group
	groups  []applyGroup // parallel to grp.ids
	order   []int32      // grp's groups in ascending ID order
	seeds   map[fabric.LinkKey]struct{}
	keys    []fabric.LinkKey
	comp    []*FlowState // the component's flows, in snapshot order
	compIDs []string
	spare   []*deltaGroup // records for declared groups to reuse
}

// applyGroup is one live group's part in an Apply.
type applyGroup struct {
	prev     *deltaGroup // the group's record at the last pass; nil if untracked
	declared bool
	fresh    *deltaGroup // a declared group's new record, installed on success
	ports    map[fabric.LinkKey]struct{}
	comp     bool
}

// record returns an empty deltaGroup, reusing a spare one when it can.
func (a *applyScratch) record() *deltaGroup {
	if n := len(a.spare); n > 0 {
		g := a.spare[n-1]
		a.spare = a.spare[:n-1]
		return g
	}
	return &deltaGroup{ports: make(map[fabric.LinkKey]struct{})}
}

// recycle empties a record no longer in the state and keeps it for reuse.
func (a *applyScratch) recycle(g *deltaGroup) {
	clear(g.flowIDs)
	g.flowIDs = g.flowIDs[:0]
	clear(g.ports)
	a.spare = append(a.spare, g)
}

// reset drops the scratch's references into the snapshot, but for compIDs,
// which the last outcome reports, and recycles the records a fallback left
// uninstalled.
func (a *applyScratch) reset() {
	for k := range a.groups {
		if g := a.groups[k].fresh; g != nil {
			a.recycle(g)
		}
	}
	clear(a.groups)
	clear(a.comp)
	a.grp.reset()
}

// NewDelta wraps an EchelonMADD scheduler with the incremental path.
func NewDelta(inner EchelonMADD) *DeltaEchelon {
	return &DeltaEchelon{inner: inner}
}

// Name implements Scheduler.
func (d *DeltaEchelon) Name() string { return d.inner.Name() + "+delta" }

// LastOutcome reports what the most recent Apply did. Its Replanned slice
// is the caller's own.
func (d *DeltaEchelon) LastOutcome() DeltaOutcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.last
	out.Replanned = append([]string(nil), d.last.Replanned...)
	return out
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
	a := &d.a
	defer a.reset()
	if err := a.grp.build(snap, snap.Flows); err != nil {
		return fall("invalid-snapshot")
	}
	if snap.Now < st.now {
		return fall("time-regression")
	}
	a.groups = resize(a.groups, len(a.grp.ids))
	a.order = a.order[:0]
	for k := range a.grp.ids {
		a.order = append(a.order, int32(k))
	}
	slices.SortFunc(a.order, func(x, y int32) int { return strings.Compare(a.grp.ids[x], a.grp.ids[y]) })
	for _, id := range delta.Groups {
		if k, live := a.grp.slots[id]; live {
			a.groups[k].declared = true
		}
	}

	// Any membership drift outside the declared delta voids the patch.
	for _, k := range a.order {
		g := &a.groups[k]
		g.prev = st.groups[a.grp.ids[k]]
		if g.prev == nil {
			if !g.declared {
				return fall("untracked-group")
			}
			continue
		}
		if !g.declared && !equalFlowIDs(g.prev.flowIDs, snap.Flows, a.grp.group(k)) {
			return fall("undeclared-drift")
		}
	}
	for id := range st.groups {
		if _, live := a.grp.slots[id]; !live && !slices.Contains(delta.Groups, id) {
			return fall("undeclared-drift")
		}
	}

	// Link footprints. Tracked groups outside the delta just proved their
	// membership unchanged, and a topology mutation would have bumped the
	// fabric generation — their footprint from the last pass is current, so
	// reuse it. Only the declared groups compute fresh link sets.
	for _, k := range a.order {
		g := &a.groups[k]
		if g.prev != nil && !g.declared {
			g.ports = g.prev.ports
			continue
		}
		g.fresh = a.record()
		a.keys = addFlowPorts(g.fresh.ports, net, snap.Flows, a.grp.group(k), a.keys)
		g.ports = g.fresh.ports
	}

	// Seed the affected-link set from the changed groups' footprints — both
	// the previous one (covers finished/unregistered flows) and the current
	// one (covers newly released flows) — then close over current groups
	// sharing any of those links.
	if a.seeds == nil {
		a.seeds = make(map[fabric.LinkKey]struct{})
	}
	clear(a.seeds)
	for _, id := range delta.Groups {
		if prev := st.groups[id]; prev != nil {
			for pk := range prev.ports {
				a.seeds[pk] = struct{}{}
			}
		}
		if k, live := a.grp.slots[id]; live {
			for pk := range a.groups[k].ports {
				a.seeds[pk] = struct{}{}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range a.order {
			g := &a.groups[k]
			if g.comp || !intersectsPorts(g.ports, a.seeds) {
				continue
			}
			g.comp = true
			for pk := range g.ports {
				a.seeds[pk] = struct{}{}
			}
			changed = true
		}
	}
	a.compIDs = a.compIDs[:0]
	for _, k := range a.order {
		if a.groups[k].comp {
			a.compIDs = append(a.compIDs, a.grp.ids[k])
		}
	}
	if len(a.compIDs) == len(a.order) && len(a.order) > 1 {
		// The event touches everything: a full pass does the same work and
		// recaptures the incremental state.
		return fall("component-spans-all")
	}

	// Hold every flow outside the component at its previous rate.
	rates := make(map[string]unit.Rate, len(snap.Flows))
	a.comp = a.comp[:0]
	for i, fs := range snap.Flows {
		if a.groups[a.grp.of[i]].comp {
			a.comp = append(a.comp, fs)
			continue
		}
		r, ok := st.rates[fs.Flow.ID]
		if !ok {
			return fall("missing-held-rate")
		}
		rates[fs.Flow.ID] = r
	}
	held := len(snap.Flows) - len(a.comp)

	// Replan the component exactly as Schedule plans the full set — the same
	// allocate pass, over a link table of the component's flows only.
	lt, err := acquireLinkTable(snap, net, a.comp)
	if err != nil {
		return fall("invalid-snapshot") // unreachable: a.grp checked every flow
	}
	defer lt.release()
	if err := d.inner.allocate(lt, snap, lt.groups()); err != nil {
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
	// carries over untouched. The state's rates change in place: the
	// declared groups' previous flows leave, the component's flows take
	// their new rates, and every held flow keeps its entry.
	st.now = snap.Now
	for _, id := range delta.Groups {
		if prev := st.groups[id]; prev != nil {
			for _, fid := range prev.flowIDs {
				delete(st.rates, fid)
			}
		}
	}
	lt.writeRates(st.rates)
	for _, id := range delta.Groups {
		k, live := a.grp.slots[id]
		if !live {
			if prev := st.groups[id]; prev != nil {
				delete(st.groups, id)
				a.recycle(prev)
			}
			continue
		}
		g := &a.groups[k]
		if g.fresh == nil {
			continue // declared twice, installed already
		}
		for _, i := range a.grp.group(k) {
			g.fresh.flowIDs = append(g.fresh.flowIDs, snap.Flows[i].Flow.ID)
		}
		slices.Sort(g.fresh.flowIDs)
		if g.prev != nil {
			a.recycle(g.prev)
		}
		st.groups[id] = g.fresh
		g.fresh = nil
	}
	d.last = DeltaOutcome{Applied: true, Replanned: a.compIDs, Held: held}
	return rates, true, nil
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
	var gr grouping
	if err := gr.build(snap, snap.Flows); err != nil {
		panic(err) // unreachable: both callers hold a validated snapshot
	}
	var keys []fabric.LinkKey
	for k, id := range gr.ids {
		idx := gr.group(int32(k))
		g := &deltaGroup{
			flowIDs: make([]string, 0, len(idx)),
			ports:   make(map[fabric.LinkKey]struct{}, 2*len(idx)),
		}
		for _, i := range idx {
			g.flowIDs = append(g.flowIDs, snap.Flows[i].Flow.ID)
		}
		slices.Sort(g.flowIDs)
		keys = addFlowPorts(g.ports, net, snap.Flows, idx, keys)
		st.groups[id] = g
	}
	return st
}

// addFlowPorts adds every link the indexed flows touch to the set. It
// returns keys, FlowLinks' buffer, for reuse.
func addFlowPorts(set map[fabric.LinkKey]struct{}, net fabric.Fabric, flows []*FlowState, idx []int32, keys []fabric.LinkKey) []fabric.LinkKey {
	for _, i := range idx {
		fs := flows[i]
		keys = net.FlowLinks(fs.Flow.Src, fs.Flow.Dst, keys[:0])
		for _, k := range keys {
			set[k] = struct{}{}
		}
	}
	return keys
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

// equalFlowIDs reports whether sorted prev equals the indexed flows' ID
// set. Flow IDs are unique within a validated snapshot, so equal lengths
// plus every current ID present in prev implies set equality.
func equalFlowIDs(prev []string, flows []*FlowState, idx []int32) bool {
	if len(prev) != len(idx) {
		return false
	}
	for _, i := range idx {
		id := flows[i].Flow.ID
		j := sort.SearchStrings(prev, id)
		if j == len(prev) || prev[j] != id {
			return false
		}
	}
	return true
}
