package sched

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// linkTable is the planning substrate of one EchelonMADD pass, shared by the
// full pass (built over every snapshot flow) and the delta path (built over
// the replanned component's flows). Each flow's path is looked up in the
// table's pathTable and mapped to dense pass-local link ids; capacities come
// from the same table. Everything the planner keeps per link — free-capacity
// timelines, class volumes, residuals, usage — is a slice indexed by link
// id, and everything it keeps per flow is a slice parallel to the flows the
// table was built over. A pass therefore costs O(flows × path length)
// whatever the fabric's size, with one pair lookup and one group lookup per
// flow.
//
// Exactness: every per-link float sum (reservations, class volumes, residual
// takes, usage) is accumulated in the order of the flows slice, which is
// snapshot order in both callers, and every reduction across links is a min,
// which is order-free. A component's links are touched by no flow outside
// it, so a table over the component computes bit for bit what a table over
// the whole snapshot computes for those flows.
//
// Ownership: everything a pass builds — its groups and their deadline
// classes, the fill plans, sort scratch — lives in the table and
// is reused by the next pass, so a warm pass allocates nothing but the rate
// map its caller returns. A plan is valid until its flow is planned again:
// lt.segs[i] aliases flow i's fill buffer, which the next classFill over
// flow i overwrites.
//
// Tables are pooled; one is used by one goroutine at a time.
type linkTable struct {
	net   fabric.Fabric
	now   unit.Time
	paths pathTable

	// Per link, in first-touch order.
	caps  []unit.Rate
	profs []profile
	vol   []unit.Bytes // class volume crossing the link; zero outside classLambda
	acc   []unit.Rate  // backfill residual, then clamp/feasibility usage

	// Per flow. Flow i crosses path[off[i]:off[i+1]].
	flows    []*FlowState
	deadline []unit.Time
	off      []int32
	path     []int32
	segs     [][]fillSegment // the latest plan committed for the flow
	rate     []unit.Rate     // the allocation being built
	// classFill's plan buffers: one set for the greedy fill and one for the
	// paced fill, which planClass holds at once. segs aliases one of them.
	greedy, paced [][]fillSegment
	// badEndpoint records an unknown or self-addressed flow, which
	// fabric.Feasible rejects before it looks at any rate.
	badEndpoint bool

	// Per group, rebuilt by groups. gbuf[k] is grp's group k and gorder
	// points into gbuf; each group's class flows and classes are runs of
	// byDeadline and classes, whose capacity groups fixes at len(flows)
	// first, so no run moves once taken.
	grp        grouping
	gbuf       []passGroup
	gorder     []*passGroup
	byDeadline []int32
	classes    []deadlineClass

	// Scratch.
	hot    []int32 // links with vol set
	breaks []unit.Time
	rem    []unit.Bytes
	order  []int32      // backfill's deadline order
	gcls   []groupClass // planGlobalEDF's class order
}

var linkTables = sync.Pool{New: func() any { return new(linkTable) }}

// acquireLinkTable checks flows against snap as Snapshot.Validate does and
// resolves them against net into a pooled table with every touched link at
// full capacity from snap.Now and every rate zero. On error it returns no
// table.
func acquireLinkTable(snap *Snapshot, net fabric.Fabric, flows []*FlowState) (*linkTable, error) {
	lt := linkTables.Get().(*linkTable)
	if err := lt.grp.build(snap, flows); err != nil {
		lt.release()
		return nil, err
	}
	lt.net, lt.now, lt.badEndpoint = net, snap.Now, false
	lt.caps, lt.profs, lt.vol, lt.acc = lt.caps[:0], lt.profs[:0], lt.vol[:0], lt.acc[:0]
	lt.flows, lt.deadline, lt.path = lt.flows[:0], lt.deadline[:0], lt.path[:0]
	lt.segs, lt.rate = lt.segs[:0], lt.rate[:0]
	lt.off = append(lt.off[:0], 0)
	pt := &lt.paths
	pt.begin(net, len(flows))
	for i, fs := range flows {
		p := pt.pair(fs.Flow.Src, fs.Flow.Dst)
		lt.badEndpoint = lt.badEndpoint || pt.bad[p]
		for _, l := range pt.links[pt.off[p]:pt.off[p+1]] {
			if pt.stamp[l] != pt.pass {
				pt.stamp[l], pt.local[l] = pt.pass, lt.addLink(pt.caps[l])
			}
			lt.path = append(lt.path, pt.local[l])
		}
		lt.off = append(lt.off, int32(len(lt.path)))
		lt.flows = append(lt.flows, fs)
		g := lt.grp.states[lt.grp.of[i]]
		lt.deadline = append(lt.deadline, g.Group.Arrangement.Deadline(fs.Flow.Stage, g.Reference))
		lt.segs = append(lt.segs, nil)
		lt.rate = append(lt.rate, 0)
	}
	lt.greedy = resize(lt.greedy, len(flows))
	lt.paced = resize(lt.paced, len(flows))
	return lt, nil
}

// resize returns s with length n, keeping the elements of its backing
// array (here, the fill buffers a previous pass grew).
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// addLink gives a link of capacity c the next pass-local id, reusing a
// pooled profile's arrays when it can.
func (lt *linkTable) addLink(c unit.Rate) int32 {
	l := len(lt.caps)
	lt.caps = append(lt.caps, c)
	lt.vol = append(lt.vol, 0)
	lt.acc = append(lt.acc, 0)
	if l < cap(lt.profs) {
		lt.profs = lt.profs[:l+1]
	} else {
		lt.profs = append(lt.profs, profile{})
	}
	lt.profs[l].reset(lt.now, c)
	return int32(l)
}

// release returns the table to the pool, dropping its references into the
// snapshot. The path table keeps its fabric: its cached paths stay valid
// for the fabric's current generation, and holding the value keeps its
// identity from being reused by another fabric.
func (lt *linkTable) release() {
	lt.grp.reset()
	clear(lt.flows)
	clear(lt.segs)
	clear(lt.gbuf)
	lt.net = nil
	linkTables.Put(lt)
}

// maxPairs bounds the host pairs a path table caches: a pass that would
// take it past the bound starts from an empty table.
const maxPairs = 1 << 12

// hostPair is a flow's (src, dst).
type hostPair struct{ src, dst string }

// pathTable holds, for one fabric value at one generation, every host pair
// a pass has met: its path as table link ids and whether an endpoint is
// unknown or both are the same host (the check fabric.Feasible makes
// first). Each table link's capacity is read once. Between mutations a
// fabric's paths and capacities are fixed (the Fabric contract bumps
// Generation on every one), so a pass asks the fabric nothing for a pair
// it has met; a different fabric value or a new generation empties the
// table. A pass maps table links to its own dense ids through stamp and
// local: stamp[l] == pass when link l already has a pass id, local[l].
type pathTable struct {
	net  fabric.Fabric
	gen  uint64
	pass uint32

	// Per pair. Pair p crosses links[off[p]:off[p+1]].
	pairs map[hostPair]int32
	off   []int32
	links []int32
	bad   []bool

	// Per table link.
	ids   map[fabric.LinkKey]int32
	caps  []unit.Rate
	stamp []uint32
	local []int32

	keys []fabric.LinkKey // FlowLinks' buffer
}

// begin starts a pass of n flows over net, emptying the table when net is
// another fabric, has mutated, or n new pairs could cross maxPairs — never
// mid-pass, when table links already have pass ids.
func (pt *pathTable) begin(net fabric.Fabric, n int) {
	if gen := net.Generation(); pt.net != net || pt.gen != gen || len(pt.bad)+n > maxPairs {
		if pt.pairs == nil {
			pt.pairs, pt.ids = make(map[hostPair]int32), make(map[fabric.LinkKey]int32)
		}
		clear(pt.pairs)
		clear(pt.ids)
		pt.net, pt.gen = net, gen
		pt.off = append(pt.off[:0], 0)
		pt.links, pt.bad = pt.links[:0], pt.bad[:0]
		pt.caps, pt.stamp, pt.local = pt.caps[:0], pt.stamp[:0], pt.local[:0]
	}
	if pt.pass++; pt.pass == 0 {
		clear(pt.stamp)
		pt.pass = 1
	}
}

// pair returns the number of the (src, dst) pair, resolving its path on
// first sight.
func (pt *pathTable) pair(src, dst string) int32 {
	hp := hostPair{src, dst}
	if p, ok := pt.pairs[hp]; ok {
		return p
	}
	p := int32(len(pt.bad))
	pt.pairs[hp] = p
	pt.bad = append(pt.bad, src == dst || pt.net.Host(src) == nil || pt.net.Host(dst) == nil)
	pt.keys = pt.net.FlowLinks(src, dst, pt.keys[:0])
	for _, k := range pt.keys {
		l, ok := pt.ids[k]
		if !ok {
			l = int32(len(pt.caps))
			pt.ids[k] = l
			pt.caps = append(pt.caps, pt.net.LinkCapacity(k))
			pt.stamp = append(pt.stamp, 0)
			pt.local = append(pt.local, 0)
		}
		pt.links = append(pt.links, l)
	}
	pt.off = append(pt.off, int32(len(pt.links)))
	return p
}

// grouping partitions a flow list by group ID, allocating nothing once
// warm: groups are numbered by first appearance, group k's state is
// states[k], and its members, as indices into the list in list order, are
// members[start[k]:start[k+1]]. Building it is also Snapshot.Validate: the
// one pass that looks each flow's group up resolves each group's state once.
type grouping struct {
	slots   map[string]int32    // group ID to number
	seen    map[string]struct{} // the flow IDs met so far
	ids     []string            // group k's ID
	states  []*GroupState
	cursor  []int // group k's member search start, see member
	of      []int32
	start   []int32
	next    []int32 // placement cursor per group
	members []int32
}

// build partitions flows, checking each against snap in Validate's order
// and returning the first failure's error.
func (gr *grouping) build(snap *Snapshot, flows []*FlowState) error {
	if gr.slots == nil {
		gr.slots, gr.seen = make(map[string]int32), make(map[string]struct{})
	}
	gr.ids, gr.states, gr.cursor, gr.of = gr.ids[:0], gr.states[:0], gr.cursor[:0], gr.of[:0]
	for _, fs := range flows {
		if fs.Flow == nil {
			return fmt.Errorf("sched: snapshot flow with nil core flow")
		}
		id := fs.Flow.ID
		n := len(gr.seen)
		if gr.seen[id] = struct{}{}; len(gr.seen) == n {
			return fmt.Errorf("sched: snapshot has duplicate flow %q", id)
		}
		if fs.Remaining < 0 {
			return fmt.Errorf("sched: flow %q has negative remaining volume", id)
		}
		k, ok := gr.slots[fs.GroupID]
		if !ok {
			g, known := snap.Groups[fs.GroupID]
			if !known {
				return fmt.Errorf("sched: flow %q references unknown group %q", id, fs.GroupID)
			}
			k = int32(len(gr.ids))
			gr.slots[fs.GroupID] = k
			gr.ids = append(gr.ids, fs.GroupID)
			gr.states = append(gr.states, g)
			gr.cursor = append(gr.cursor, 0)
		}
		if !gr.member(k, id) {
			return fmt.Errorf("sched: flow %q is not a member of group %q", id, fs.GroupID)
		}
		gr.of = append(gr.of, k)
	}
	gr.start = resize(gr.start, len(gr.ids)+1)
	clear(gr.start)
	for _, k := range gr.of {
		gr.start[k+1]++
	}
	for k := range gr.ids {
		gr.start[k+1] += gr.start[k]
	}
	gr.next = append(gr.next[:0], gr.start[:len(gr.ids)]...)
	gr.members = resize(gr.members, len(flows))
	for i, k := range gr.of {
		gr.members[gr.next[k]] = int32(i)
		gr.next[k]++
	}
	return nil
}

// member reports whether group k has a flow with the given ID, as
// Group.Flow does. The search starts at the group's cursor and wraps
// around: a snapshot lists a group's flows mostly in member order, so each
// search is usually one comparison.
func (gr *grouping) member(k int32, id string) bool {
	flows := gr.states[k].Group.Flows
	start := gr.cursor[k]
	for j := range flows {
		p := start + j
		if p >= len(flows) {
			p -= len(flows)
		}
		if flows[p].ID == id {
			gr.cursor[k] = p + 1
			return true
		}
	}
	return false
}

// group returns group k's members.
func (gr *grouping) group(k int32) []int32 {
	return gr.members[gr.start[k]:gr.start[k+1]:gr.start[k+1]]
}

// reset drops the references to the flows' IDs and groups.
func (gr *grouping) reset() {
	clear(gr.slots)
	clear(gr.seen)
	clear(gr.ids)
	clear(gr.states)
}

// links returns the link ids flow i crosses, in FlowLinks order.
func (lt *linkTable) links(i int32) []int32 { return lt.path[lt.off[i]:lt.off[i+1]] }

// rewind restores full capacity on every link the given flows cross, so a
// solo plan leaves no trace for the next group.
func (lt *linkTable) rewind(flows []int32) {
	for _, i := range flows {
		for _, l := range lt.links(i) {
			lt.profs[l].reset(lt.now, lt.caps[l])
		}
	}
}

// sortStable sorts table indices in place as sortedCopy sorts flows: the
// same stable algorithm, comparisons and flow-ID tie-break, hence the same
// permutation of the same input.
func (lt *linkTable) sortStable(flows []int32, less func(a, b int32) bool) {
	slices.SortStableFunc(flows, func(a, b int32) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return strings.Compare(lt.flows[a].Flow.ID, lt.flows[b].Flow.ID)
	})
}

// backfill hands leftover instantaneous capacity to flows in deadline order:
// fabric.Residual's Available/Take arithmetic over the table's links.
func (lt *linkTable) backfill() {
	copy(lt.acc, lt.caps)
	take := func(i int32, r unit.Rate) {
		for _, l := range lt.links(i) {
			lt.acc[l] -= r
			if lt.acc[l] < 0 {
				lt.acc[l] = 0
			}
		}
	}
	lt.order = lt.order[:0]
	for i := range lt.flows {
		lt.order = append(lt.order, int32(i))
		take(int32(i), lt.rate[i])
	}
	lt.sortStable(lt.order, func(a, b int32) bool { return lt.deadline[a].Before(lt.deadline[b]) })
	for _, i := range lt.order {
		extra := unit.Rate(1e300)
		for _, l := range lt.links(i) {
			extra = unit.MinRate(extra, lt.acc[l])
		}
		if extra <= unit.Rate(unit.Eps) {
			continue
		}
		lt.rate[i] += extra
		take(i, extra)
	}
}

// usage accumulates every link's allocated rate into acc.
func (lt *linkTable) usage() {
	clear(lt.acc)
	for i := range lt.flows {
		for _, l := range lt.links(int32(i)) {
			lt.acc[l] += lt.rate[i]
		}
	}
}

// clamp scales down the flows of any link whose allocations exceed its
// capacity by accumulated floating-point fuzz.
func (lt *linkTable) clamp() {
	lt.usage()
	for i := range lt.flows {
		s := 1.0
		for _, l := range lt.links(int32(i)) {
			if used, c := lt.acc[l], lt.caps[l]; used > c && used != 0 {
				if v := float64(c) / float64(used); v < s {
					s = v
				}
			}
		}
		if s < 1 {
			lt.rate[i] = unit.Rate(float64(lt.rate[i]) * s)
		}
	}
}

// feasible is fabric.Feasible's verdict computed over the table: endpoints
// known and distinct, no negative rate, and every link within capacity at
// the same tolerance, with usage summed in the same (flow) order.
func (lt *linkTable) feasible() bool {
	if lt.badEndpoint {
		return false
	}
	for _, r := range lt.rate {
		if r < 0 {
			return false
		}
	}
	lt.usage()
	const tol = 1e-6
	for l, used := range lt.acc {
		if float64(used) > float64(lt.caps[l])+tol {
			return false
		}
	}
	return true
}

// writeRates copies the table's allocation into a rate map.
func (lt *linkTable) writeRates(rates map[string]unit.Rate) {
	for i, fs := range lt.flows {
		rates[fs.Flow.ID] = lt.rate[i]
	}
}
