package check

import (
	"fmt"
	"math"
	"sort"

	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// Violation is one oracle failure. Details are deterministic (no
// timestamps, paths or map-ordered output) so repeated runs render
// byte-identically.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func vf(oracle, format string, args ...interface{}) Violation {
	return Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

// Result-oracle names (per-run invariants on the simulator's output).
const (
	OracleFeasible  = "feasible"  // allocations respect NIC capacities; no negative/NaN rates
	OracleConserve  = "conserve"  // integrated rate equals flow size; every node completes
	OracleOrdering  = "ordering"  // release-before-finish, dependency and NotBefore order, host exclusivity
	OracleTardiness = "tardiness" // group tardiness aggregates flows; finishes beat the solo lower bound
	OracleWorkCons  = "workcons"  // work conservation: no active flow starves while both its ports idle
	OracleQueue     = "queue"     // queue admission over the job arrival trace: no early admits, FIFO fairness, budget, drain
)

// Differential-oracle names (two executions that must agree).
const (
	OracleLive    = "live"    // sim vs live coordinator replay: same references/tardiness/allocations
	OracleJournal = "journal" // journal crash/Restore mid-run: bit-equal to uninterrupted run
	OracleDelta   = "delta"   // incremental Apply vs full Schedule: bit-equal replanned flows, held rates frozen, stale state refused
	OracleDegrade = "degrade" // injected scheduler stall: fallback stays feasible, accounting intact, bit-equal re-convergence after
)

// OracleRun is the pseudo-oracle a simulator error reports under, so
// setup/deadlock failures shrink like any other violation.
const OracleRun = "run"

// ResultOracles lists the per-run invariant oracles in evaluation order.
func ResultOracles() []string {
	return []string{OracleFeasible, OracleConserve, OracleOrdering, OracleTardiness, OracleWorkCons, OracleQueue}
}

// DiffOracles lists the differential oracles in evaluation order.
func DiffOracles() []string {
	return []string{OracleLive, OracleJournal, OracleDelta, OracleDegrade}
}

// AllOracles lists every oracle the harness knows.
func AllOracles() []string {
	return append(ResultOracles(), DiffOracles()...)
}

// capTimeline reconstructs each host's piecewise-constant NIC capacities
// from the scenario baseline and the compiled fault changes.
type capTimeline struct {
	base    map[string]HostSpec
	changes []sim.CapacityChange // sorted by At
}

func newCapTimeline(hosts []HostSpec, changes []sim.CapacityChange) *capTimeline {
	ct := &capTimeline{base: make(map[string]HostSpec, len(hosts))}
	for _, h := range hosts {
		ct.base[h.Name] = h
	}
	ct.changes = append(ct.changes, changes...)
	sort.SliceStable(ct.changes, func(i, j int) bool { return ct.changes[i].At < ct.changes[j].At })
	return ct
}

// at returns host's capacities at time t (changes at exactly t included,
// matching the simulator's apply-then-schedule order).
func (ct *capTimeline) at(host string, t unit.Time) (eg, in unit.Rate) {
	h := ct.base[host]
	eg, in = h.Egress, h.Ingress
	for _, c := range ct.changes {
		if c.At > t+unit.Time(unit.Eps) {
			break
		}
		if c.Host == host {
			eg, in = c.Egress, c.Ingress
		}
	}
	return eg, in
}

// bestPairRate is the largest min(src egress, dst ingress) available at any
// moment of the timeline — an upper bound on a flow's instantaneous rate,
// hence Size/bestPairRate lower-bounds its solo transfer time.
func (ct *capTimeline) bestPairRate(src, dst string) unit.Rate {
	breaks := []unit.Time{0}
	for _, c := range ct.changes {
		breaks = append(breaks, c.At)
	}
	var best unit.Rate
	for _, t := range breaks {
		eg, _ := ct.at(src, t)
		_, in := ct.at(dst, t)
		r := eg
		if in < r {
			r = in
		}
		if r > best {
			best = r
		}
	}
	return best
}

// span is one constant-rate window of the recorded timeline.
type span struct{ from, to unit.Time }

// spansOf collects the distinct rate-segment windows in time order.
func spansOf(res *sim.Result) []span {
	seen := make(map[span]bool)
	var out []span
	for _, seg := range res.Rates {
		s := span{seg.From, seg.To}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].from < out[j].from })
	return out
}

// oracleFeasible checks every recorded allocation against the fabric:
// rates are finite and non-negative, and per-span host ingress/egress sums
// stay within the capacities in force during the span.
func oracleFeasible(c *compiled, res *sim.Result) []Violation {
	var out []Violation
	ct := newCapTimeline(c.sc.Hosts, c.caps)
	node := func(id string) *dag.Node { return c.graph.Node(id) }
	net := c.newNet()

	// Accumulate usage per fabric link (NICs plus whatever interior links
	// the backend defines) per rate span, via the backend's own path
	// enumeration — the per-link generalization of the old per-port check.
	type key struct {
		link fabric.LinkKey
		s    span
	}
	use := make(map[key]float64)
	var lbuf []fabric.LinkKey
	for _, seg := range res.Rates {
		r := float64(seg.Rate)
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			out = append(out, vf(OracleFeasible, "flow %s has invalid rate %v in [%v,%v)", seg.FlowID, seg.Rate, seg.From, seg.To))
			continue
		}
		n := node(seg.FlowID)
		if n == nil {
			out = append(out, vf(OracleFeasible, "rate segment for unknown flow %s", seg.FlowID))
			continue
		}
		s := span{seg.From, seg.To}
		lbuf = net.FlowLinks(n.Src, n.Dst, lbuf[:0])
		for _, k := range lbuf {
			use[key{k, s}] += r
		}
	}
	links := net.Links()
	for _, s := range spansOf(res) {
		for _, l := range links {
			u := use[key{l.Key, s}]
			switch l.Key.Kind {
			case fabric.LinkEgress:
				eg, _ := ct.at(l.Key.Name, s.from)
				if u > float64(eg)*(1+1e-6)+unit.Eps {
					out = append(out, vf(OracleFeasible, "host %s egress oversubscribed in [%v,%v): %v > %v", l.Key.Name, s.from, s.to, u, eg))
				}
			case fabric.LinkIngress:
				_, in := ct.at(l.Key.Name, s.from)
				if u > float64(in)*(1+1e-6)+unit.Eps {
					out = append(out, vf(OracleFeasible, "host %s ingress oversubscribed in [%v,%v): %v > %v", l.Key.Name, s.from, s.to, u, in))
				}
			default:
				// Interior links keep their static capacity: fault events
				// only mutate host NICs.
				if u > float64(l.Capacity)*(1+1e-6)+unit.Eps {
					out = append(out, vf(OracleFeasible, "link %s oversubscribed in [%v,%v): %v > %v", l.Key, s.from, s.to, u, l.Capacity))
				}
			}
		}
	}
	return out
}

// oracleConserve checks completion and byte accounting: every node ran,
// and each flow's integrated rate equals its size.
func oracleConserve(c *compiled, res *sim.Result) []Violation {
	var out []Violation
	vol := make(map[string]float64)
	for _, seg := range res.Rates {
		vol[seg.FlowID] += float64(seg.Rate.Over(seg.To - seg.From))
	}
	for _, n := range c.graph.Nodes() {
		if n.Kind == dag.Compute {
			if _, ok := res.Tasks[n.ID]; !ok {
				out = append(out, vf(OracleConserve, "compute %s never ran", n.ID))
			}
			continue
		}
		rec, ok := res.Flows[n.ID]
		if !ok {
			out = append(out, vf(OracleConserve, "flow %s never finished", n.ID))
			continue
		}
		if math.Abs(vol[n.ID]-float64(n.Size)) > 1e-6*(1+float64(n.Size)) {
			out = append(out, vf(OracleConserve, "flow %s shipped %v of %v bytes", n.ID, vol[n.ID], n.Size))
		}
		if rec.Size != n.Size {
			out = append(out, vf(OracleConserve, "flow %s recorded size %v, graph says %v", n.ID, rec.Size, n.Size))
		}
	}
	return out
}

// oracleOrdering checks temporal sanity: released before finished,
// dependencies and NotBefore respected, and computes serialized per host.
func oracleOrdering(c *compiled, res *sim.Result) []Violation {
	var out []Violation
	endOf := func(id string) unit.Time {
		if sp, ok := res.Tasks[id]; ok {
			return sp.End
		}
		return res.Flows[id].Finish
	}
	startOf := func(id string) unit.Time {
		if sp, ok := res.Tasks[id]; ok {
			return sp.Start
		}
		return res.Flows[id].Release
	}
	for _, n := range c.graph.Nodes() {
		if n.Kind == dag.Comm {
			rec, ok := res.Flows[n.ID]
			if !ok {
				continue // conserve reports the gap
			}
			if rec.Finish < rec.Release-unit.Time(unit.Eps) {
				out = append(out, vf(OracleOrdering, "flow %s finished %v before release %v", n.ID, rec.Finish, rec.Release))
			}
		}
		if startOf(n.ID) < n.NotBefore-unit.Time(1e-6) {
			out = append(out, vf(OracleOrdering, "node %s started %v before its NotBefore %v", n.ID, startOf(n.ID), n.NotBefore))
		}
		for _, dep := range c.graph.Deps(n.ID) {
			if startOf(n.ID) < endOf(dep)-unit.Time(1e-6) {
				out = append(out, vf(OracleOrdering, "node %s started %v before dep %s ended %v", n.ID, startOf(n.ID), dep, endOf(dep)))
			}
		}
	}
	// Host exclusivity over compute spans.
	byHost := make(map[string][]string)
	for _, n := range c.graph.Nodes() {
		if n.Kind == dag.Compute {
			if _, ok := res.Tasks[n.ID]; ok {
				byHost[n.Host] = append(byHost[n.Host], n.ID)
			}
		}
	}
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		ids := byHost[h]
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				a, b := res.Tasks[ids[i]], res.Tasks[ids[j]]
				if a.Start < b.End-unit.Time(unit.Eps) && b.Start < a.End-unit.Time(unit.Eps) {
					out = append(out, vf(OracleOrdering, "computes %s and %s overlap on host %s", ids[i], ids[j], h))
				}
			}
		}
	}
	return out
}

// oracleTardiness checks the Eq. 1-4 accounting: a group's tardiness is
// the maximum over its flows (never negative — the head flow cannot beat
// the reference), the reference is the first member release, and no flow
// finishes faster than its best-case solo transfer allows.
func oracleTardiness(c *compiled, res *sim.Result) []Violation {
	var out []Violation
	ct := newCapTimeline(c.sc.Hosts, c.caps)
	for _, n := range c.commNodes() {
		rec, ok := res.Flows[n.ID]
		if !ok {
			continue
		}
		best := ct.bestPairRate(n.Src, n.Dst)
		if best <= 0 {
			continue
		}
		solo := unit.Time(float64(n.Size) / float64(best))
		if got := rec.Finish - rec.Release; got < solo-unit.Time(1e-6*(1+float64(solo))) {
			out = append(out, vf(OracleTardiness, "flow %s finished in %v, below its solo lower bound %v", n.ID, got, solo))
		}
	}
	for _, gid := range c.groupIDs() {
		gr, ok := res.Groups[gid]
		if !ok || gr.Group == nil {
			out = append(out, vf(OracleTardiness, "group %s missing from results", gid))
			continue
		}
		var maxTard unit.Time
		minRelease := unit.Time(math.Inf(1))
		seen := false
		for _, f := range gr.Group.Flows {
			rec, ok := res.Flows[f.ID]
			if !ok {
				continue
			}
			seen = true
			if tt := rec.Tardiness(); tt > maxTard {
				maxTard = tt
			}
			if rec.Release < minRelease {
				minRelease = rec.Release
			}
		}
		if !seen {
			continue
		}
		if !gr.Tardiness.ApproxEq(maxTard) {
			out = append(out, vf(OracleTardiness, "group %s tardiness %v != max flow tardiness %v", gid, gr.Tardiness, maxTard))
		}
		if gr.Tardiness < -unit.Time(unit.Eps) {
			out = append(out, vf(OracleTardiness, "group %s has negative tardiness %v", gid, gr.Tardiness))
		}
		if !gr.Reference.ApproxEq(minRelease) {
			out = append(out, vf(OracleTardiness, "group %s reference %v != first release %v", gid, gr.Reference, minRelease))
		}
	}
	return out
}

// workConserving reports whether a scheduler never idles a port an active
// flow could use — the property oracleWorkCons asserts. Greedy-fill and
// max-min schedulers qualify; MADD planners only with backfill.
func workConserving(s sched.Scheduler) bool {
	switch v := s.(type) {
	case sched.Fair, sched.SRPT, sched.FIFO, sched.EDF:
		return true
	case sched.EchelonMADD:
		return v.Backfill
	case sched.CoflowMADD:
		return v.Backfill
	default:
		return false
	}
}

// oracleWorkCons checks that during every constant-rate span, no flow that
// was active for the whole span has usable headroom on every link of its
// path (on the big-switch fabric: both of its ports). Only meaningful for
// work-conserving schedulers in event-driven mode: IntervalOnly holds rates
// stale between ticks by design.
func oracleWorkCons(c *compiled, res *sim.Result, s sched.Scheduler) []Violation {
	if !workConserving(s) || c.sc.IntervalOnly {
		return nil
	}
	var out []Violation
	net := c.newNet()
	ct := newCapTimeline(c.sc.Hosts, c.caps)
	type key struct {
		link fabric.LinkKey
		s    span
	}
	use := make(map[key]float64)
	node := func(id string) *dag.Node { return c.graph.Node(id) }
	var lbuf []fabric.LinkKey
	for _, seg := range res.Rates {
		n := node(seg.FlowID)
		if n == nil {
			continue
		}
		s := span{seg.From, seg.To}
		lbuf = net.FlowLinks(n.Src, n.Dst, lbuf[:0])
		for _, k := range lbuf {
			use[key{k, s}] += float64(seg.Rate)
		}
	}
	// Fault events only mutate host NICs, so NIC links read the capacity
	// timeline and interior links are static.
	capAt := func(k fabric.LinkKey, at unit.Time) float64 {
		switch k.Kind {
		case fabric.LinkEgress:
			eg, _ := ct.at(k.Name, at)
			return float64(eg)
		case fabric.LinkIngress:
			_, in := ct.at(k.Name, at)
			return float64(in)
		default:
			return float64(net.LinkCapacity(k))
		}
	}
	for _, s := range spansOf(res) {
		if s.to-s.from <= unit.Time(unit.Eps) {
			continue
		}
		for _, n := range c.commNodes() {
			rec, ok := res.Flows[n.ID]
			if !ok {
				continue
			}
			if rec.Release > s.from+unit.Time(unit.Eps) || rec.Finish < s.to-unit.Time(unit.Eps) {
				continue // not active throughout the span
			}
			lbuf = net.FlowLinks(n.Src, n.Dst, lbuf[:0])
			head, lim := math.Inf(1), math.Inf(1)
			for _, k := range lbuf {
				c := capAt(k, s.from)
				head = math.Min(head, c-use[key{k, s}])
				lim = math.Min(lim, c)
			}
			if head > 1e-6*(1+lim) {
				out = append(out, vf(OracleWorkCons,
					"flow %s idles with %v headroom on %s->%s during [%v,%v)",
					n.ID, head, n.Src, n.Dst, s.from, s.to))
			}
		}
	}
	return out
}
