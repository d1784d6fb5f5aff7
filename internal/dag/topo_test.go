package dag_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/unit"
)

// referenceTopoSort is the ID-keyed algorithm Graph.TopoSort replaced, kept
// as the reference: after every pop the ready list is re-sorted by insertion
// position, so the earliest-inserted ready node always goes next.
func referenceTopoSort(g *dag.Graph) ([]string, error) {
	nodes := g.Nodes()
	indeg := make(map[string]int, len(nodes))
	pos := make(map[string]int, len(nodes))
	var ready []string
	for i, n := range nodes {
		indeg[n.ID] = len(g.Deps(n.ID))
		pos[n.ID] = i
		if indeg[n.ID] == 0 {
			ready = append(ready, n.ID)
		}
	}
	out := make([]string, 0, len(nodes))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, s := range g.Dependents(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i]] < pos[ready[j]] })
	}
	if len(out) != len(nodes) {
		for _, n := range nodes {
			if indeg[n.ID] > 0 {
				return nil, fmt.Errorf("dag: cycle involving node %q", n.ID)
			}
		}
	}
	return out, nil
}

// referenceCriticalPath is the ID-keyed CriticalPath over referenceTopoSort.
func referenceCriticalPath(g *dag.Graph, refRate unit.Rate) (unit.Time, []string) {
	topo, err := referenceTopoSort(g)
	if err != nil {
		return 0, nil
	}
	dist := make(map[string]unit.Time)
	prev := make(map[string]string)
	var best unit.Time
	var bestID string
	for _, id := range topo {
		n := g.Node(id)
		start := unit.Time(0)
		for _, p := range g.Deps(id) {
			if dist[p] > start {
				start, prev[id] = dist[p], p
			}
		}
		cost := n.Duration
		if n.Kind == dag.Comm {
			cost = n.Size.At(refRate)
		}
		if dist[id] = start + cost; dist[id] > best {
			best, bestID = dist[id], id
		}
	}
	var path []string
	for id := bestID; id != ""; id = prev[id] {
		path = append([]string{id}, path...)
	}
	return best, path
}

// randomGraph inserts n nodes in a random order and draws edges along a
// second, hidden order, so insertion order and dependency order disagree.
// With back > 0 a fraction of edges point backwards, which makes cycles
// likely.
func randomGraph(rng *rand.Rand, n int, back float64) *dag.Graph {
	g := dag.New()
	for _, i := range rng.Perm(n) {
		g.MustAdd(&dag.Node{ID: fmt.Sprintf("n%d", i), Kind: dag.Compute, Host: "h",
			Duration: unit.Time(rng.Intn(5))})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.15 {
				from, to := i, j
				if rng.Float64() < back {
					from, to = j, i
				}
				g.MustDepend(fmt.Sprintf("n%d", from), fmt.Sprintf("n%d", to))
			}
		}
	}
	return g
}

func checkAgainstReference(t *testing.T, name string, g *dag.Graph) {
	t.Helper()
	want, wantErr := referenceTopoSort(g)
	got, err := g.TopoSort()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: TopoSort error %v, reference %v", name, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: TopoSort\n got %v\nwant %v", name, got, want)
	}
	if (g.Validate() == nil) != (wantErr == nil) {
		t.Fatalf("%s: Validate %v disagrees with the reference's %v", name, g.Validate(), wantErr)
	}
	if wantErr != nil {
		return
	}
	wantLen, wantPath := referenceCriticalPath(g, 3)
	gotLen, gotPath, err := g.CriticalPath(3)
	if err != nil || gotLen != wantLen || !reflect.DeepEqual(gotPath, wantPath) {
		t.Fatalf("%s: CriticalPath %v %v %v, reference %v %v", name, gotLen, gotPath, err, wantLen, wantPath)
	}
}

// The position heap emits exactly the order (and names exactly the cycle
// node) that sort-per-pop did.
func TestTopoSortMatchesReference(t *testing.T) {
	cycles := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		back := 0.0
		if seed%3 == 0 {
			back = 0.05
		}
		g := randomGraph(rng, 1+rng.Intn(60), back)
		checkAgainstReference(t, fmt.Sprintf("seed %d", seed), g)
		if _, err := g.TopoSort(); err != nil {
			cycles++
		}
	}
	if cycles < 20 {
		t.Fatalf("only %d of the random graphs had a cycle", cycles)
	}

	m := ddlt.Uniform("m", 4, 8, 4, 0.1, 0.2)
	ws := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("w%d", i)
		}
		return out
	}
	jobs := map[string]interface {
		Build() (*ddlt.Workload, error)
	}{
		"dp":     ddlt.DPAllReduce{Name: "dp", Model: m, Workers: ws(3), BucketCount: 2, Iterations: 2},
		"ps":     ddlt.DPParameterServer{Name: "ps", Model: m, Workers: ws(3), PS: "ps", AggTime: 0.1, Iterations: 2},
		"pp":     ddlt.PipelineGPipe{Name: "pp", Model: m, Workers: ws(4), MicroBatches: 3, UpdateTime: 0.1, Iterations: 2},
		"1f1b":   ddlt.Pipeline1F1B{Name: "1f1b", Model: m, Workers: ws(4), MicroBatches: 5, UpdateTime: 0.1, Iterations: 2},
		"tp":     ddlt.TensorParallel{Name: "tp", Model: m, Workers: ws(3), Iterations: 2},
		"fsdp":   ddlt.FSDP{Name: "fsdp", Model: m, Workers: ws(3), PrefetchDepth: 1, Iterations: 2},
		"hybrid": ddlt.HybridTPPP{Name: "hy", Model: m, StageWorkers: [][]string{{"a", "b"}, {"c", "d"}}, MicroBatches: 2, Iterations: 2},
	}
	var all []*ddlt.Workload
	for _, name := range []string{"dp", "ps", "pp", "1f1b", "tp", "fsdp", "hybrid"} {
		w, err := jobs[name].Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkAgainstReference(t, name, w.Graph)
		all = append(all, w)
	}
	merged, err := ddlt.Merge(all...)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "merged", merged.Graph)
}
