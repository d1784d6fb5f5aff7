package sched

import (
	"fmt"
	"slices"
	"strings"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// Order selects how EchelonMADD ranks competing EchelonFlows, the
// inter-EchelonFlow decision of the paper's Property 4 ("rank EchelonFlows
// by each EchelonFlow's tardiness, instead of the Coflow completion time").
type Order int

const (
	// SmallestTardinessFirst is the SEBF analogue: groups that can achieve
	// low tardiness go first, keeping them tight while barely delaying the
	// already-late ones. This is the default.
	SmallestTardinessFirst Order = iota
	// LargestTardinessFirst prioritizes the most tardy groups. Available
	// for the inter-group ordering ablation (DESIGN.md E1).
	LargestTardinessFirst
)

// String names the order for experiment tables.
func (o Order) String() string {
	switch o {
	case SmallestTardinessFirst:
		return "stf"
	case LargestTardinessFirst:
		return "ltf"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// EchelonMADD is the paper's EchelonFlow scheduler: the MADD adaptation of
// Property 4. For each EchelonFlow it finds the smallest achievable group
// tardiness τ — the minimal uniform slack such that every member flow can
// finish by its ideal finish time plus τ — and allocates just enough
// bandwidth to meet those staggered targets, planned over a time-varying
// capacity profile. Flows sharing a deadline (Coflow stages) are allocated
// proportionally so they finish simultaneously, which makes the scheduler
// collapse to classic MADD on Coflow-compliant groups (Property 2).
type EchelonMADD struct {
	// Order ranks competing groups; see Order.
	Order Order
	// Backfill redistributes leftover capacity (earliest deadline first)
	// after the minimal allocations, making the scheduler work-conserving.
	Backfill bool
	// Weighted divides each group's ordering metric by its weight (the
	// weighted-sum objective of Eq. 4): a weight-2 group is served as if
	// its achievable tardiness were half as large.
	Weighted bool
	// GlobalEDF plans deadline classes in one global earliest-(floored)-
	// deadline order across groups instead of group by group. Group-serial
	// planning (the default, Varys-like) cannot express workloads whose
	// computation interleaves consumption across groups (e.g. 1F1B
	// pipelines); global ordering can, at the cost of the SEBF-style
	// inter-group preference. Ablated in experiments E1/E7.
	GlobalEDF bool
	// Cache, when non-nil, memoizes each group's solo-tardiness ranking
	// (and the solo plan it derives from) across Schedule calls. Entries
	// are reused only when provably equivalent — same flow set, same
	// tardiness floor, same fabric generation, and remaining volumes at or
	// ahead of the cached solo plan's fluid-model pace — so allocations are
	// byte-identical to the uncached scheduler. Copies of an EchelonMADD
	// share the pointed-to cache. See PlanCache.
	Cache *PlanCache
}

// Name implements Scheduler.
func (e EchelonMADD) Name() string {
	n := "echelon-madd"
	if e.Order == LargestTardinessFirst {
		n += "-ltf"
	}
	if e.GlobalEDF {
		n += "-gedf"
	}
	if e.Weighted {
		n += "-w"
	}
	if e.Backfill {
		n += "+bf"
	}
	return n
}

// PlanCache exposes the scheduler's cache (possibly nil) so the simulator
// and coordinator can invalidate it eagerly when scheduling inputs change.
func (e EchelonMADD) PlanCache() *PlanCache { return e.Cache }

// deadlineClass is a set of group flows (link-table indices) sharing one
// ideal finish time; its members must finish simultaneously (a Coflow stage
// inside the group).
type deadlineClass struct {
	deadline unit.Time
	flows    []int32
}

// passGroup is one EchelonFlow's share of a planning pass. The link table
// owns it and reuses it on the next pass.
type passGroup struct {
	id      string
	state   *GroupState
	idx     []int32 // the group's flows as link-table indices, in snapshot order
	classes []deadlineClass
	floor   unit.Time // achieved tardiness: the group cannot do better
	solo    unit.Time // ranking metric, see rank
}

// groups turns the table's grouping into its EchelonFlows, ordered by group
// ID for determinism, each with its deadline classes resolved. The groups
// and everything they point to belong to the table.
func (lt *linkTable) groups() []*passGroup {
	lt.gbuf = resize(lt.gbuf, len(lt.grp.ids))
	lt.gorder = lt.gorder[:0]
	for k, id := range lt.grp.ids {
		st := lt.grp.states[k]
		lt.gbuf[k] = passGroup{id: id, state: st, idx: lt.grp.group(int32(k)), floor: unit.MaxTime(0, st.AchievedTardiness)}
		lt.gorder = append(lt.gorder, &lt.gbuf[k])
	}
	slices.SortFunc(lt.gorder, func(a, b *passGroup) int { return strings.Compare(a.id, b.id) })
	lt.byDeadline = slices.Grow(lt.byDeadline[:0], len(lt.flows))
	lt.classes = slices.Grow(lt.classes[:0], len(lt.flows))
	for _, g := range lt.gorder {
		lt.classesOf(g)
	}
	return lt.gorder
}

// classesOf partitions a group's flows by deadline, ascending, into runs of
// the table's arenas.
func (lt *linkTable) classesOf(g *passGroup) {
	start := len(lt.byDeadline)
	lt.byDeadline = append(lt.byDeadline, g.idx...)
	sorted := lt.byDeadline[start:]
	lt.sortStable(sorted, func(a, b int32) bool {
		da, db := lt.deadline[a], lt.deadline[b]
		if !da.ApproxEq(db) {
			return da < db
		}
		return lt.flows[a].Flow.Stage < lt.flows[b].Flow.Stage
	})
	// A class is a run of sorted whose deadlines match its first member's.
	first := len(lt.classes)
	start = 0
	for n := 1; n <= len(sorted); n++ {
		if d := lt.deadline[sorted[start]]; n == len(sorted) || !d.ApproxEq(lt.deadline[sorted[n]]) {
			lt.classes = append(lt.classes, deadlineClass{deadline: d, flows: sorted[start:n:n]})
			start = n
		}
	}
	g.classes = lt.classes[first:len(lt.classes):len(lt.classes)]
}

// classFill plans a simultaneous-finish transmission for one deadline class
// inside [from, to]: at every instant each flow's rate is proportional to
// its remaining volume, scaled to the tightest link (classic MADD), over the
// time-varying free capacities. With paced set, rates are additionally
// capped at the minimum pace that still reaches the target — the "minimum
// allocation for desired duration" that leaves slack to other groups; the
// greedy (unpaced) mode transmits as early as possible and is used to test
// feasibility, since deferring work can only lose against a fixed capacity
// profile. It leaves each member's segments in its buffer of the table's
// lt.paced or lt.greedy set and reports whether the class finishes by the
// target. Nothing is committed.
func (lt *linkTable) classFill(cls deadlineClass, from, to unit.Time, paced bool) bool {
	plans := lt.greedy
	if paced {
		plans = lt.paced
	}
	remaining := lt.rem[:0]
	var total unit.Bytes
	for _, i := range cls.flows {
		plans[i] = plans[i][:0]
		remaining = append(remaining, lt.flows[i].Remaining)
		total += lt.flows[i].Remaining
	}
	lt.rem = remaining
	if total.Zeroish() {
		return true
	}
	if to <= from {
		return false
	}
	cuts := lt.classBreaks(cls, from, to)
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		// λ scales per-flow rates (rate_j = λ·v_j): the largest λ keeping
		// every link within its free capacity for this segment.
		lambda := lt.classLambda(cls, remaining, a)
		if paced && to > a {
			// Never exceed the pace that finishes exactly at the target:
			// the remaining fraction needs 1/λ more time, so λ = 1/(to−a).
			needed := 1 / float64(to-a)
			if needed < lambda {
				lambda = needed
			}
		}
		if lambda <= unit.Eps {
			continue
		}
		// All flows finish together after 1/λ more time at these rates.
		finishSpan := unit.Time(1 / lambda)
		segEnd := b
		done := false
		if a+finishSpan <= b+unit.Time(unit.Eps) {
			segEnd = a + finishSpan
			done = true
		}
		for j, v := range remaining {
			if v.Zeroish() {
				continue
			}
			r := unit.Rate(lambda * float64(v))
			i := cls.flows[j]
			plans[i] = append(plans[i], fillSegment{from: a, to: segEnd, rate: r})
			remaining[j] = v - r.Over(segEnd-a)
		}
		if done {
			return true
		}
	}
	return false
}

// classLambda computes the largest proportional-rate scale for a class at
// time t: min over links of free capacity divided by the volume crossing it.
func (lt *linkTable) classLambda(cls deadlineClass, remaining []unit.Bytes, t unit.Time) float64 {
	for j, i := range cls.flows {
		v := remaining[j]
		if v.Zeroish() {
			continue
		}
		for _, l := range lt.links(i) {
			if lt.vol[l] == 0 {
				lt.hot = append(lt.hot, l)
			}
			lt.vol[l] += v
		}
	}
	lambda := 1e300
	for _, l := range lt.hot {
		if x := float64(lt.profs[l].freeAt(t)) / float64(lt.vol[l]); x < lambda {
			lambda = x
		}
		lt.vol[l] = 0
	}
	lt.hot = lt.hot[:0]
	return lambda
}

// classBreaks merges the breakpoints of every link a class touches within
// [from, to]. The returned slice aliases the table's scratch buffer; it is
// valid until the next classBreaks call.
func (lt *linkTable) classBreaks(cls deadlineClass, from, to unit.Time) []unit.Time {
	out := append(lt.breaks[:0], from, to)
	for _, i := range cls.flows {
		for _, l := range lt.links(i) {
			for _, t := range lt.profs[l].times {
				if t > from && t < to {
					out = append(out, t)
				}
			}
		}
	}
	out = sortedBreaks(out)
	lt.breaks = out[:0]
	return out
}

// commitClass reserves a class plan, per flow in plans, on the link
// profiles and records it as each member's plan.
func (lt *linkTable) commitClass(cls deadlineClass, plans [][]fillSegment) {
	for _, i := range cls.flows {
		lt.segs[i] = plans[i]
		for _, seg := range plans[i] {
			for _, l := range lt.links(i) {
				lt.profs[l].reserve(seg.from, seg.to, seg.rate)
			}
		}
	}
}

// planHorizon is the open-ended window for "finish as early as possible"
// greedy fills.
const planHorizon = unit.Time(1e15)

// planGroup reserves a whole group on the link profiles, class by class in
// deadline order. Each class is paced to finish at
//
//	target = max(deadline + floor, earliest feasible finish)
//
// — the MADD adaptation of Property 4: a class receives the minimum
// allocation that meets its (floored) ideal finish time, and a class whose
// ideal finish is unattainable catches up as fast as the fabric allows
// without slacking the classes ahead of it. The floor is the group's
// already-achieved tardiness, which keeps the remaining flows aligned with
// the shifted echelon formation (§3.1) instead of over-serving them.
//
// It leaves each member's plan in lt.segs and returns the group's planned
// tardiness (the worst planned finish minus deadline), or an error when a
// required link has no capacity at all.
func (lt *linkTable) planGroup(g *passGroup) (unit.Time, error) {
	tardiness := g.floor
	for _, cls := range g.classes {
		planned, err := lt.planClass(cls, g.floor)
		if err != nil {
			return 0, err
		}
		tardiness = unit.MaxTime(tardiness, planned-cls.deadline)
	}
	return tardiness, nil
}

// latestFinish is the latest end of any class member's plan, no earlier
// than now.
func (lt *linkTable) latestFinish(cls deadlineClass, plans [][]fillSegment) unit.Time {
	latest := lt.now
	for _, i := range cls.flows {
		if segs := plans[i]; len(segs) > 0 {
			latest = unit.MaxTime(latest, finishOf(segs))
		}
	}
	return latest
}

// planClass plans and commits one deadline class against the profiles,
// returning the class's planned finish.
func (lt *linkTable) planClass(cls deadlineClass, floor unit.Time) (unit.Time, error) {
	if !lt.classFill(cls, lt.now, planHorizon, false) {
		return 0, fmt.Errorf("sched: class at deadline %v cannot finish (zero-capacity port?)", cls.deadline)
	}
	plans := lt.greedy
	earliest := lt.latestFinish(cls, plans)
	if target := unit.MaxTime(cls.deadline+floor, earliest); target.After(earliest) {
		// Deferring to the target may hit spans other groups already
		// reserved; keep the greedy plan if pacing cannot fit.
		if lt.classFill(cls, lt.now, target, true) {
			plans = lt.paced
		}
	}
	lt.commitClass(cls, plans)
	return lt.latestFinish(cls, plans), nil
}

// rank computes the inter-EchelonFlow ordering metric of Property 4 — the
// tardiness each group would achieve alone on the full fabric — and sorts
// groups (ascending by ID on entry) into planning order. Rankings come from
// the cache where provably equivalent; otherwise the group is planned solo
// on the table, whose profiles are pristine before and rewound after, and
// the solo plan is cached as the fluid-model pace that decides later reuse.
func (e EchelonMADD) rank(lt *linkTable, snap *Snapshot, groups []*passGroup) error {
	for _, g := range groups {
		if snap.stopped() {
			return ErrStopped
		}
		if tau, ok := e.Cache.lookup(snap, lt, g); ok {
			g.solo = tau
			continue
		}
		tau, err := lt.planGroup(g)
		if err != nil {
			return fmt.Errorf("sched: group %q: %w", g.id, err)
		}
		g.solo = tau
		e.Cache.store(snap, lt, g)
		lt.rewind(g.idx)
	}
	if e.Weighted {
		for _, g := range groups {
			g.solo = unit.Time(float64(g.solo) / g.state.Group.EffectiveWeight())
		}
	}
	slices.SortStableFunc(groups, func(x, y *passGroup) int {
		a, b := x.solo, y.solo
		if !a.ApproxEq(b) {
			less := a < b
			if e.Order == LargestTardinessFirst {
				less = a > b
			}
			if less {
				return -1
			}
			return 1
		}
		return strings.Compare(x.id, y.id)
	})
	return nil
}

// addPlannedRates adds each flow's planned rate at the pass instant to its
// allocation.
func (lt *linkTable) addPlannedRates(flows []int32) {
	for _, i := range flows {
		lt.rate[i] += rateAt(lt.segs[i], lt.now)
	}
}

// groupClass is one deadline class of a group, in planGlobalEDF's order.
type groupClass struct {
	g   *passGroup
	cls deadlineClass
}

// planGlobalEDF reserves every group's deadline classes in one global
// earliest-(floored)-deadline order, ties broken by rank then group ID.
func (lt *linkTable) planGlobalEDF(snap *Snapshot, groups []*passGroup) error {
	all := lt.gcls[:0]
	for _, g := range groups {
		for _, cls := range g.classes {
			all = append(all, groupClass{g: g, cls: cls})
		}
	}
	lt.gcls = all
	slices.SortStableFunc(all, func(x, y groupClass) int {
		a, b := x.cls.deadline+x.g.floor, y.cls.deadline+y.g.floor
		if !a.ApproxEq(b) {
			if a < b {
				return -1
			}
			return 1
		}
		if !x.g.solo.ApproxEq(y.g.solo) {
			if x.g.solo < y.g.solo {
				return -1
			}
			return 1
		}
		return strings.Compare(x.g.id, y.g.id)
	})
	for _, gc := range all {
		if snap.stopped() {
			return ErrStopped
		}
		if _, err := lt.planClass(gc.cls, gc.g.floor); err != nil {
			return fmt.Errorf("sched: group %q: %w", gc.g.id, err)
		}
		lt.addPlannedRates(gc.cls.flows)
	}
	return nil
}

// allocate runs the planning pass over the table's flows and leaves the
// allocation in lt.rate: rank the groups, reserve them on the shared
// capacity timeline group by group in rank order (or, under GlobalEDF, all
// deadline classes in one global EDF order), backfill, and clamp float fuzz
// so the allocation is exactly feasible. It checks snap.Stop before every
// group (every class under GlobalEDF) of both loops.
func (e EchelonMADD) allocate(lt *linkTable, snap *Snapshot, groups []*passGroup) error {
	if err := e.rank(lt, snap, groups); err != nil {
		return err
	}
	if e.GlobalEDF {
		if err := lt.planGlobalEDF(snap, groups); err != nil {
			return err
		}
	} else {
		for _, g := range groups {
			if snap.stopped() {
				return ErrStopped
			}
			if _, err := lt.planGroup(g); err != nil {
				return fmt.Errorf("sched: group %q: %w", g.id, err)
			}
			lt.addPlannedRates(g.idx)
		}
	}
	if e.Backfill {
		lt.backfill()
	}
	lt.clamp()
	return nil
}

// Schedule implements Scheduler.
func (e EchelonMADD) Schedule(snap *Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	rates := make(map[string]unit.Rate, len(snap.Flows))
	if len(snap.Flows) == 0 {
		return rates, nil
	}
	lt, err := acquireLinkTable(snap, net, snap.Flows)
	if err != nil {
		return nil, err
	}
	defer lt.release()
	groups := lt.groups()
	if e.Cache != nil {
		lt.names = lt.names[:0]
		for _, g := range groups {
			lt.names = append(lt.names, g.id)
		}
		e.Cache.prune(lt.names)
	}
	if err := e.allocate(lt, snap, groups); err != nil {
		return nil, err
	}
	lt.writeRates(rates)
	if !lt.feasible() {
		// Let the fabric phrase the violation, in its canonical link order.
		if err := net.Feasible(requestsOf(snap.Flows), rates); err != nil {
			return nil, err
		}
	}
	return rates, nil
}
