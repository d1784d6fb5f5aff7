package sched

import (
	"sort"
	"sync"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// linkTable is the planning substrate of one EchelonMADD pass, shared by the
// full pass (built over every snapshot flow) and the delta path (built over
// the replanned component's flows). Each flow's path is resolved once
// through the fabric's FlowLinks and interned to dense pass-local link ids;
// capacities are read once per link. Everything the planner keeps per link —
// free-capacity timelines, class volumes, residuals, usage — is a slice
// indexed by link id, and everything it keeps per flow is a slice parallel
// to the flows the table was built over. A pass therefore costs
// O(flows × path length) whatever the fabric's size, and hashes each link
// key once.
//
// Exactness: every per-link float sum (reservations, class volumes, residual
// takes, usage) is accumulated in the order of the flows slice, which is
// snapshot order in both callers, and every reduction across links is a min,
// which is order-free. A component's links are touched by no flow outside
// it, so a table over the component computes bit for bit what a table over
// the whole snapshot computes for those flows.
//
// Tables are pooled; one is used by one goroutine at a time.
type linkTable struct {
	net fabric.Fabric
	now unit.Time

	// Per link, in first-touch order.
	ids   map[fabric.LinkKey]int32
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
	// badEndpoint records an unknown or self-addressed flow, which
	// fabric.Feasible rejects before it looks at any rate.
	badEndpoint bool

	// Scratch.
	keys   []fabric.LinkKey
	hot    []int32 // links with vol set
	breaks []unit.Time
	rem    []unit.Bytes
}

var linkTables = sync.Pool{New: func() any {
	return &linkTable{ids: make(map[fabric.LinkKey]int32)}
}}

// acquireLinkTable resolves flows against net into a pooled table with every
// touched link at full capacity from snap.Now and every rate zero.
func acquireLinkTable(snap *Snapshot, net fabric.Fabric, flows []*FlowState) *linkTable {
	lt := linkTables.Get().(*linkTable)
	lt.net, lt.now, lt.badEndpoint = net, snap.Now, false
	lt.caps, lt.profs, lt.vol, lt.acc = lt.caps[:0], lt.profs[:0], lt.vol[:0], lt.acc[:0]
	lt.flows, lt.deadline, lt.path = lt.flows[:0], lt.deadline[:0], lt.path[:0]
	lt.segs, lt.rate = lt.segs[:0], lt.rate[:0]
	lt.off = append(lt.off[:0], 0)
	for _, fs := range flows {
		src, dst := fs.Flow.Src, fs.Flow.Dst
		if src == dst || net.Host(src) == nil || net.Host(dst) == nil {
			lt.badEndpoint = true
		}
		lt.keys = net.FlowLinks(src, dst, lt.keys[:0])
		for _, k := range lt.keys {
			l, ok := lt.ids[k]
			if !ok {
				l = lt.addLink(k)
			}
			lt.path = append(lt.path, l)
		}
		lt.off = append(lt.off, int32(len(lt.path)))
		lt.flows = append(lt.flows, fs)
		lt.deadline = append(lt.deadline, snap.Deadline(fs))
		lt.segs = append(lt.segs, nil)
		lt.rate = append(lt.rate, 0)
	}
	return lt
}

// addLink interns a link, reusing a pooled profile's arrays when it can.
func (lt *linkTable) addLink(k fabric.LinkKey) int32 {
	l := len(lt.caps)
	lt.ids[k] = int32(l)
	c := lt.net.LinkCapacity(k)
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
// snapshot and the fabric.
func (lt *linkTable) release() {
	clear(lt.ids)
	clear(lt.flows)
	clear(lt.segs)
	lt.net = nil
	linkTables.Put(lt)
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

// sorted is sortedCopy over table indices: the same stable sort, flow-ID
// tie-break and initial order, hence the same permutation.
func (lt *linkTable) sorted(flows []int32, less func(a, b int32) bool) []int32 {
	out := append([]int32(nil), flows...)
	sort.SliceStable(out, func(i, j int) bool {
		if less(out[i], out[j]) {
			return true
		}
		if less(out[j], out[i]) {
			return false
		}
		return lt.flows[out[i]].Flow.ID < lt.flows[out[j]].Flow.ID
	})
	return out
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
	all := make([]int32, len(lt.flows))
	for i := range all {
		all[i] = int32(i)
		take(int32(i), lt.rate[i])
	}
	for _, i := range lt.sorted(all, func(a, b int32) bool { return lt.deadline[a].Before(lt.deadline[b]) }) {
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
