// Package dag provides the computation-dependency graph shared by the DDLT
// workload compilers and the co-simulator.
//
// EchelonFlow's arrangement functions are derived from "computation
// dependencies (i.e., DAG) and times" (paper §1): each training paradigm is
// compiled into a graph whose nodes are computation units or network flows,
// and whose edges are happens-before dependencies. The graph is intentionally
// generic — it knows nothing about scheduling — so the same structure serves
// workload generation, profiling, and critical-path analysis.
package dag

import (
	"fmt"
	"slices"
	"sort"

	"echelonflow/internal/unit"
)

// Kind distinguishes computation units from communication flows.
type Kind int

const (
	// Compute nodes occupy a worker (GPU) exclusively for a fixed duration.
	Compute Kind = iota
	// Comm nodes are network flows whose duration depends on scheduling.
	Comm
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one unit in the computation arrangement.
type Node struct {
	ID   string
	Kind Kind

	// Host is the worker executing a Compute node. Unused for Comm nodes.
	Host string
	// Duration is the profiled execution time of a Compute node.
	// For Comm nodes it is advisory (used only by critical-path analysis,
	// which assumes a dedicated link).
	Duration unit.Time

	// Src, Dst and Size describe a Comm node's flow.
	Src, Dst string
	Size     unit.Bytes

	// Group names the EchelonFlow a Comm node belongs to, if any.
	Group string
	// Stage is the node's index within its group's arrangement
	// (micro-batch index for pipelines, layer/phase index for FSDP).
	Stage int

	// Seq orders ready Compute nodes on the same host: lower Seq runs
	// first. Workload compilers set it to the intended execution order.
	Seq int

	// NotBefore is the earliest simulated time the node may start even if
	// its dependencies are already satisfied. Scenario builders use it to
	// model externally timed releases (e.g. the staggered flow arrivals of
	// the paper's Fig. 2).
	NotBefore unit.Time
}

// Graph is a directed acyclic dependency graph.
//
// Nodes are stored by insertion position, and edges as positions, so the
// compilers' Depend calls and every traversal index slices instead of
// hashing IDs; the ID map is consulted only at the API boundary.
//
// Edges live in two flat arenas, one per direction. Each node owns one
// segment of each: its successors in out, its predecessors in in. Depend
// appends to a segment in place when it has room or ends its arena, and
// otherwise moves the segment to the arena's end with twice the room, so
// every view is current after every Depend at amortized O(1) cost and a
// graph allocates O(log edges) times for its edges, not twice per node.
//
// The zero value is not ready for use; call New.
type Graph struct {
	idx map[string]int32
	vs  []vertex // insertion order
	// out and in are the successor and predecessor arenas. Segments list
	// positions in registration order.
	out, in []int32
}

// vertex is a node and its segments of the edge arenas.
type vertex struct {
	node    *Node
	out, in span
}

// span is a segment of an arena: arena[off:off+n] in use, room up to
// off+c.
type span struct{ off, n, c int32 }

// view returns the segment's positions, capped so callers cannot append
// into a neighbour's segment.
func (s span) view(arena []int32) []int32 { return arena[s.off : s.off+s.n : s.off+s.n] }

// push appends v to the segment s of arena, growing it in place when it has
// room or ends the arena and moving it to the arena's end otherwise.
func push(arena []int32, s *span, v int32) []int32 {
	if s.n == s.c {
		if int(s.off+s.c) == len(arena) {
			arena = append(arena, 0)
			s.c++
		} else {
			off, c := int32(len(arena)), max(2*s.n, 1)
			arena = append(arena, arena[s.off:s.off+s.n]...)
			arena = slices.Grow(arena, int(c-s.n))[:off+c]
			s.off, s.c = off, c
		}
	}
	arena[s.off+s.n] = v
	s.n++
	return arena
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{idx: make(map[string]int32, 16), vs: make([]vertex, 0, 16),
		out: make([]int32, 0, 32), in: make([]int32, 0, 32)}
}

// Add inserts a node. It returns an error if the ID is empty or duplicated.
func (g *Graph) Add(n *Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("dag: node must have an ID")
	}
	if _, ok := g.idx[n.ID]; ok {
		return fmt.Errorf("dag: duplicate node %q", n.ID)
	}
	g.idx[n.ID] = int32(len(g.vs))
	g.vs = append(g.vs, vertex{node: n})
	return nil
}

// MustAdd is Add for workload compilers building graphs from trusted
// generators; it panics on error.
func (g *Graph) MustAdd(n *Node) {
	if err := g.Add(n); err != nil {
		panic(err)
	}
}

// Depend records that node "to" depends on node "from" (from must finish
// before to may start). Both nodes must already exist.
func (g *Graph) Depend(from, to string) error {
	f, ok := g.idx[from]
	if !ok {
		return fmt.Errorf("dag: dependency source %q not found", from)
	}
	t, ok := g.idx[to]
	if !ok {
		return fmt.Errorf("dag: dependency target %q not found", to)
	}
	g.edge(f, t)
	return nil
}

// edge records the dependency of position t on position f.
func (g *Graph) edge(f, t int32) {
	g.out = push(g.out, &g.vs[f].out, t)
	g.in = push(g.in, &g.vs[t].in, f)
}

// MustDepend is Depend that panics on error.
func (g *Graph) MustDepend(from, to string) {
	if err := g.Depend(from, to); err != nil {
		panic(err)
	}
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id string) *Node {
	if i, ok := g.idx[id]; ok {
		return g.vs[i].node
	}
	return nil
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.vs) }

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, len(g.vs))
	for i, v := range g.vs {
		out[i] = v.node
	}
	return out
}

// ids names the nodes at the given positions (nil for none).
func (g *Graph) ids(pos []int32) []string {
	if len(pos) == 0 {
		return nil
	}
	out := make([]string, len(pos))
	for i, p := range pos {
		out[i] = g.vs[p].node.ID
	}
	return out
}

// Deps returns the IDs a node depends on, in registration order.
func (g *Graph) Deps(id string) []string {
	if i, ok := g.idx[id]; ok {
		return g.ids(g.vs[i].in.view(g.in))
	}
	return nil
}

// Dependents returns the IDs depending on a node, in registration order.
func (g *Graph) Dependents(id string) []string {
	if i, ok := g.idx[id]; ok {
		return g.ids(g.vs[i].out.view(g.out))
	}
	return nil
}

// Index returns the insertion position of the node with the given ID, or -1.
// Positions are what Succ and NumPred take, and Nodes returns in their order.
func (g *Graph) Index(id string) int {
	if i, ok := g.idx[id]; ok {
		return int(i)
	}
	return -1
}

// Succ returns the positions of the nodes depending on the node at position
// i, in registration order. The slice is a read-only view of the graph's own
// storage: callers must not modify it, and it is valid only until the next
// Depend or Merge.
func (g *Graph) Succ(i int) []int32 { return g.vs[i].out.view(g.out) }

// NumPred returns how many nodes the node at position i depends on.
func (g *Graph) NumPred(i int) int { return int(g.vs[i].in.n) }

// Roots returns nodes with no dependencies, in insertion order.
func (g *Graph) Roots() []*Node {
	var out []*Node
	for _, v := range g.vs {
		if v.in.n == 0 {
			out = append(out, v.node)
		}
	}
	return out
}

// TopoSort returns the node IDs in a topological order (insertion order is
// used to break ties, making the result deterministic). It returns an error
// if the graph contains a cycle, naming one node on it.
func (g *Graph) TopoSort() ([]string, error) {
	order, err := g.topo()
	if err != nil {
		return nil, err
	}
	return g.ids(order), nil
}

// topo is TopoSort on positions: of the nodes whose dependencies have all
// been emitted, the earliest inserted goes next. The ready set is a min-heap
// of positions.
func (g *Graph) topo() ([]int32, error) {
	indeg := make([]int32, len(g.vs))
	var ready []int32
	for i := range g.vs {
		if indeg[i] = g.vs[i].in.n; indeg[i] == 0 {
			ready = append(ready, int32(i)) // ascending: already a heap
		}
	}
	out := make([]int32, 0, len(g.vs))
	for len(ready) > 0 {
		i := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		siftDown(ready, 0)
		out = append(out, i)
		for _, s := range g.vs[i].out.view(g.out) {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
				siftUp(ready, len(ready)-1)
			}
		}
	}
	if len(out) != len(g.vs) {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("dag: cycle involving node %q", g.vs[i].node.ID)
			}
		}
	}
	return out, nil
}

// siftUp and siftDown keep h a binary min-heap.
func siftUp(h []int32, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []int32, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l] < h[m] {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			return
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
}

// Validate checks structural invariants: acyclicity and that Comm nodes have
// src, dst and a non-negative size while Compute nodes have a host and a
// non-negative duration.
func (g *Graph) Validate() error {
	if _, err := g.topo(); err != nil {
		return err
	}
	for _, v := range g.vs {
		n := v.node
		switch n.Kind {
		case Compute:
			if n.Host == "" {
				return fmt.Errorf("dag: compute node %q has no host", n.ID)
			}
			if n.Duration < 0 {
				return fmt.Errorf("dag: compute node %q has negative duration", n.ID)
			}
		case Comm:
			if n.Src == "" || n.Dst == "" {
				return fmt.Errorf("dag: comm node %q missing src/dst", n.ID)
			}
			if n.Src == n.Dst {
				return fmt.Errorf("dag: comm node %q has src == dst (%s)", n.ID, n.Src)
			}
			if n.Size < 0 {
				return fmt.Errorf("dag: comm node %q has negative size", n.ID)
			}
		default:
			return fmt.Errorf("dag: node %q has unknown kind %v", n.ID, n.Kind)
		}
	}
	return nil
}

// CriticalPath returns the longest path length through the graph using each
// node's Duration (Comm nodes contribute Size at the given reference rate),
// and the IDs on one such path in execution order. This is the ideal
// iteration time on an uncontended network — the lower bound EchelonFlow
// scheduling aims for (Property 1).
func (g *Graph) CriticalPath(refRate unit.Rate) (unit.Time, []string, error) {
	topo, err := g.topo()
	if err != nil {
		return 0, nil, err
	}
	dist := make([]unit.Time, len(g.vs))
	prev := make([]int32, len(g.vs))
	var best unit.Time
	bestAt := int32(-1)
	for _, i := range topo {
		n := g.vs[i].node
		start := unit.Time(0)
		prev[i] = -1
		for _, p := range g.vs[i].in.view(g.in) {
			if dist[p] > start {
				start = dist[p]
				prev[i] = p
			}
		}
		cost := n.Duration
		if n.Kind == Comm {
			cost = n.Size.At(refRate)
		}
		dist[i] = start + cost
		if dist[i] > best {
			best = dist[i]
			bestAt = i
		}
	}
	var path []string
	for i := bestAt; i >= 0; i = prev[i] {
		path = append(path, g.vs[i].node.ID)
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return best, path, nil
}

// GroupNodes returns the Comm nodes carrying the given group name, ordered
// by Stage then insertion order.
func (g *Graph) GroupNodes(group string) []*Node {
	var out []*Node
	for _, v := range g.vs {
		n := v.node
		if n.Kind == Comm && n.Group == group {
			out = append(out, n)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// Groups returns the distinct group names appearing on Comm nodes, in first-
// appearance order.
func (g *Graph) Groups() []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range g.vs {
		n := v.node
		if n.Kind == Comm && n.Group != "" && !seen[n.Group] {
			seen[n.Group] = true
			out = append(out, n.Group)
		}
	}
	return out
}

// Merge adds every node and edge of other into g, returning an error on ID
// collision. It is used to compose multi-job workloads onto one fabric.
// Each merged node keeps its dependents in other's registration order and
// lists its dependencies by position.
func (g *Graph) Merge(other *Graph) error {
	base := int32(len(g.vs))
	g.vs = slices.Grow(g.vs, len(other.vs))
	cps := make([]Node, len(other.vs))
	for i, v := range other.vs {
		cps[i] = *v.node
		if err := g.Add(&cps[i]); err != nil {
			return err
		}
	}
	// Size every merged segment exactly, then fill them walking other's
	// successors in position order.
	out, in := int32(len(g.out)), int32(len(g.in))
	for i, a := range other.vs {
		m := &g.vs[base+int32(i)]
		m.out, m.in = span{off: out, c: a.out.n}, span{off: in, c: a.in.n}
		out += a.out.n
		in += a.in.n
	}
	g.out = slices.Grow(g.out, int(out)-len(g.out))[:out]
	g.in = slices.Grow(g.in, int(in)-len(g.in))[:in]
	for i, a := range other.vs {
		for _, s := range a.out.view(other.out) {
			g.edge(base+int32(i), base+s)
		}
	}
	return nil
}
