package sched

import (
	"sort"
	"sync"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// PlanCache memoizes EchelonMADD's per-group solo-tardiness rankings across
// Schedule calls. Ranking dominates the scheduler's cost — every event
// replans every group alone on the full fabric — yet between consecutive
// events most groups are unchanged and on schedule, so their ranking metric
// is provably the same value the seed scheduler would recompute.
//
// A cached entry is reused only when equivalence is exact, never merely
// approximate:
//
//   - the group's flow set is identical (same flow IDs; flow deadlines are
//     fixed once the group's reference time is observed),
//   - the tardiness floor (achieved tardiness) is bitwise equal,
//   - the fabric has not mutated since the entry was stored (tracked by
//     Fabric.Generation), and
//   - either the snapshot time and every remaining volume are bitwise equal
//     (zero-dt event cascades), or the entry was on schedule (solo tardiness
//     exactly equal to its floor) and every flow's remaining volume is at or
//     ahead of the cached solo plan's fluid-model pace. The paced MADD
//     planner gives a group the minimum allocation meeting its floored
//     deadlines, so a group at or ahead of its own solo pace still achieves
//     exactly the floor when replanned alone: the recomputed metric equals
//     the cached one.
//
// "Ahead of pace" tolerates only unit.Eps-scale fluid-model drift — the same
// tolerance the simulator and coordinator use when advancing volumes — so a
// genuinely stalled or newly loaded flow always misses.
//
// Lookups that fail any test fall through to a real planning pass and the
// fresh result replaces the entry. Entries for departed groups are pruned on
// every Schedule call; group IDs never recur in this system, but pruning
// keeps the cache bounded by the live group count regardless.
//
// A PlanCache is safe for concurrent use. The zero value of *PlanCache (nil)
// is a valid always-miss cache, so EchelonMADD works unchanged without one.
type PlanCache struct {
	mu      sync.Mutex
	net     fabric.Fabric
	netGen  uint64
	entries map[string]*planEntry
	free    []*planEntry // dropped entries, reused by store

	hits, misses, invalidations uint64
}

// planEntry captures one group's solo ranking at the moment it was computed.
// Its member flows are parallel slices in the pass's flow order: flow k has
// ID ids[k], remaining volume rem[k] at time at, and the solo plan's fill
// segments segs[off[k]:off[k+1]], the pace the group must hold for the entry
// to stay valid. Storing the group again overwrites the slices in place.
type planEntry struct {
	at         unit.Time
	tau        unit.Time
	floor      unit.Time
	onSchedule bool
	ids        []string
	rem        []unit.Bytes
	off        []int32
	segs       []fillSegment
}

// find returns the index of flow id in the entry, or -1. Member order
// rarely changes between passes, so it tries the position hint first.
func (e *planEntry) find(hint int, id string) int {
	if hint < len(e.ids) && e.ids[hint] == id {
		return hint
	}
	for k, x := range e.ids {
		if x == id {
			return k
		}
	}
	return -1
}

// drop removes an entry and keeps it for reuse. Callers hold c.mu.
func (c *PlanCache) drop(id string, e *planEntry) {
	delete(c.entries, id)
	clear(e.ids)
	c.free = append(c.free, e)
}

// NewPlanCache returns an empty cache ready to be shared by every copy of an
// EchelonMADD scheduler (and by the sim/coordinator invalidation hooks).
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[string]*planEntry)}
}

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Entries       int
}

// Stats returns current counters.
func (c *PlanCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations, Entries: len(c.entries)}
}

// InvalidateGroup drops the entry for one group (flow released, finished, or
// group membership changed).
func (c *PlanCache) InvalidateGroup(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		c.drop(id, e)
		c.invalidations++
	}
}

// InvalidateAll drops every entry (capacity change, session loss, or any
// event whose scope is unclear).
func (c *PlanCache) InvalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations += uint64(len(c.entries))
	c.dropAll()
}

// dropAll empties the cache, keeping every entry for reuse. Callers hold
// c.mu.
func (c *PlanCache) dropAll() {
	for id, e := range c.entries {
		c.drop(id, e)
	}
}

// lookup returns the cached solo tardiness for a pass group when the entry
// is provably equivalent to what a fresh planning pass would produce.
func (c *PlanCache) lookup(snap *Snapshot, lt *linkTable, g *passGroup) (unit.Time, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.net != lt.net || c.netGen != lt.net.Generation() {
		// Any fabric mutation (capacity or topology) retires the whole
		// epoch; store() resets it.
		c.misses++
		return 0, false
	}
	e := c.entries[g.id]
	if e == nil || e.floor != g.floor || len(e.ids) != len(g.idx) {
		c.misses++
		return 0, false
	}
	if snap.Now == e.at {
		// Same instant (zero-dt event cascade): exact when volumes match.
		for j, i := range g.idx {
			fs := lt.flows[i]
			k := e.find(j, fs.Flow.ID)
			if k < 0 || e.rem[k] != fs.Remaining {
				c.misses++
				return 0, false
			}
		}
		c.hits++
		return e.tau, true
	}
	if snap.Now < e.at || !e.onSchedule {
		c.misses++
		return 0, false
	}
	// Later event, entry was on schedule (tau == floor): the ranking holds
	// as long as every flow is at or ahead of the cached solo plan's pace —
	// the paced planner then still meets every floored deadline, and the
	// floor is a lower bound, so the recomputed tau is again exactly floor.
	for j, i := range g.idx {
		fs := lt.flows[i]
		k := e.find(j, fs.Flow.ID)
		if k < 0 {
			c.misses++
			return 0, false
		}
		r0 := e.rem[k]
		pred := r0 - plannedVolume(e.segs[e.off[k]:e.off[k+1]], snap.Now)
		if pred < 0 {
			pred = 0
		}
		tol := unit.Bytes(unit.Eps * (1 + float64(r0)))
		if fs.Remaining > pred+tol {
			c.misses++
			return 0, false
		}
	}
	c.hits++
	return e.tau, true
}

// store records a pass group's freshly computed solo ranking, g.solo, and
// copies its solo plan out of the table. A fabric generation change opens a
// new epoch, discarding every stale entry.
func (c *PlanCache) store(snap *Snapshot, lt *linkTable, g *passGroup) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.net != lt.net || c.netGen != lt.net.Generation() {
		c.net, c.netGen = lt.net, lt.net.Generation()
		c.dropAll()
	}
	e := c.entries[g.id]
	if e == nil {
		if n := len(c.free); n > 0 {
			e, c.free = c.free[n-1], c.free[:n-1]
		} else {
			e = new(planEntry)
		}
		c.entries[g.id] = e
	}
	e.at, e.tau, e.floor, e.onSchedule = snap.Now, g.solo, g.floor, g.solo == g.floor
	e.ids, e.rem, e.segs = e.ids[:0], e.rem[:0], e.segs[:0]
	e.off = append(e.off[:0], 0)
	for _, i := range g.idx {
		fs := lt.flows[i]
		e.ids = append(e.ids, fs.Flow.ID)
		e.rem = append(e.rem, fs.Remaining)
		e.segs = append(e.segs, lt.segs[i]...)
		e.off = append(e.off, int32(len(e.segs)))
	}
}

// prune drops entries for groups absent from the current snapshot. ids is
// the complete set of live groups — callers holding only a subset (e.g. the
// delta path's component) must not prune, or live entries would be evicted
// and masquerade as cache misses. ids should be sorted ascending
// (groupedFlows guarantees this); an unsorted slice would silently break
// the binary search below, so it is detected and a sorted copy used.
func (c *PlanCache) prune(ids []string) {
	if c == nil {
		return
	}
	if !sort.StringsAreSorted(ids) {
		ids = append([]string(nil), ids...)
		sort.Strings(ids)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, e := range c.entries {
		i := sort.SearchStrings(ids, id)
		if i >= len(ids) || ids[i] != id {
			c.drop(id, e)
		}
	}
}

// plannedVolume integrates a solo plan's fill segments up to upto: the bytes
// the fluid model would have transmitted by that time.
func plannedVolume(segs []fillSegment, upto unit.Time) unit.Bytes {
	var vol unit.Bytes
	for _, seg := range segs {
		if seg.from >= upto {
			break
		}
		end := seg.to
		if end > upto {
			end = upto
		}
		vol += seg.rate.Over(end - seg.from)
	}
	return vol
}
