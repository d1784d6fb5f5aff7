package dag

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// orderGraph registers edges out of position order: d's dependencies arrive
// as c, a, a (twice), b, and a's dependents as d, c, d.
func orderGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		g.MustAdd(compute(id, "h", 1))
	}
	g.MustDepend("c", "d")
	g.MustDepend("a", "d")
	g.MustDepend("a", "c")
	g.MustDepend("a", "d")
	g.MustDepend("b", "d")
	g.MustDepend("d", "e")
	g.MustDepend("b", "e")
	return g
}

// lists renders every node's Deps, Dependents and Succ (as IDs).
func lists(g *Graph) (deps, dependents, succ map[string][]string) {
	deps, dependents, succ = map[string][]string{}, map[string][]string{}, map[string][]string{}
	nodes := g.Nodes()
	for i, n := range nodes {
		deps[n.ID] = g.Deps(n.ID)
		dependents[n.ID] = g.Dependents(n.ID)
		for _, s := range g.Succ(i) {
			succ[n.ID] = append(succ[n.ID], nodes[s].ID)
		}
		if g.NumPred(i) != len(deps[n.ID]) {
			panic("NumPred disagrees with Deps")
		}
	}
	return deps, dependents, succ
}

func sameLists(t *testing.T, what string, got, want map[string][]string) {
	t.Helper()
	for id, w := range want {
		if !slices.Equal(got[id], w) {
			t.Errorf("%s(%s) = %q, want %q", what, id, got[id], w)
		}
	}
	for id, g := range got {
		if _, ok := want[id]; !ok && len(g) > 0 {
			t.Errorf("%s(%s) = %q, want none", what, id, g)
		}
	}
}

// A graph keeps each node's dependencies and dependents in registration
// order; a merged graph keeps dependents in registration order and sorts
// dependencies by position. check's shrinker and oracles read Deps in this
// order, and the simulator walks Succ in it.
func TestMergeKeepsDependencyOrder(t *testing.T) {
	g := orderGraph(t)
	deps, dependents, succ := lists(g)
	sameLists(t, "Deps", deps, map[string][]string{
		"c": {"a"}, "d": {"c", "a", "a", "b"}, "e": {"d", "b"},
	})
	sameLists(t, "Dependents", dependents, map[string][]string{
		"a": {"d", "c", "d"}, "b": {"d", "e"}, "c": {"d"}, "d": {"e"},
	})
	sameLists(t, "Succ", succ, dependents)

	m := New()
	m.MustAdd(compute("x", "h", 1))
	if err := m.Merge(g); err != nil {
		t.Fatal(err)
	}
	deps, dependents, succ = lists(m)
	sameLists(t, "merged Deps", deps, map[string][]string{
		"c": {"a"}, "d": {"a", "a", "b", "c"}, "e": {"b", "d"},
	})
	sameLists(t, "merged Dependents", dependents, map[string][]string{
		"a": {"d", "c", "d"}, "b": {"d", "e"}, "c": {"d"}, "d": {"e"},
	})
	sameLists(t, "merged Succ", succ, dependents)
	order, err := m.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x", "a", "b", "c", "d", "e"}; !slices.Equal(order, want) {
		t.Fatalf("merged TopoSort = %q, want %q", order, want)
	}

	// Dependencies registered after the graph was traversed show in every
	// view: a's, whose segment was sized exactly by Merge, and x's, which had
	// none.
	m.MustDepend("a", "b")
	m.MustDepend("e", "x")
	m.MustDepend("b", "c")
	deps, dependents, succ = lists(m)
	sameLists(t, "Deps after Depend", deps, map[string][]string{
		"x": {"e"}, "b": {"a"}, "c": {"a", "b"}, "d": {"a", "a", "b", "c"}, "e": {"b", "d"},
	})
	sameLists(t, "Dependents after Depend", dependents, map[string][]string{
		"a": {"d", "c", "d", "b"}, "b": {"d", "e", "c"}, "c": {"d"}, "d": {"e"}, "e": {"x"},
	})
	sameLists(t, "Succ after Depend", succ, dependents)
	if roots := m.Roots(); len(roots) != 1 || roots[0].ID != "a" {
		t.Fatalf("Roots after Depend = %v", roots)
	}
	if order, err = m.TopoSort(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "d", "e", "x"}; !slices.Equal(order, want) {
		t.Fatalf("TopoSort after Depend = %q, want %q", order, want)
	}
}

// Segments that grow in place, move to the arena's end and are read between
// Depends list what per-node append lists would, before and after a Merge.
func TestArenaMatchesAppendLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := New()
		ids := make([]string, n)
		for i := range ids {
			ids[i] = strconv.Itoa(i)
			g.MustAdd(compute(ids[i], "h", 1))
		}
		wantDeps, wantDependents := map[string][]string{}, map[string][]string{}
		for e := rng.Intn(4 * n); e > 0; e-- {
			f, to := rng.Intn(n), rng.Intn(n)
			if f == to {
				continue
			}
			g.MustDepend(ids[f], ids[to])
			wantDependents[ids[f]] = append(wantDependents[ids[f]], ids[to])
			wantDeps[ids[to]] = append(wantDeps[ids[to]], ids[f])
			if rng.Intn(3) == 0 {
				deps, dependents, succ := lists(g)
				sameLists(t, "Deps", deps, wantDeps)
				sameLists(t, "Dependents", dependents, wantDependents)
				sameLists(t, "Succ", succ, wantDependents)
			}
		}
		deps, dependents, succ := lists(g)
		sameLists(t, "Deps", deps, wantDeps)
		sameLists(t, "Dependents", dependents, wantDependents)
		sameLists(t, "Succ", succ, wantDependents)

		// Merged: dependents as registered, dependencies by position.
		m := New()
		if err := m.Merge(g); err != nil {
			t.Fatal(err)
		}
		for id := range wantDeps {
			slices.SortStableFunc(wantDeps[id], func(a, b string) int { return g.Index(a) - g.Index(b) })
		}
		deps, dependents, succ = lists(m)
		sameLists(t, "merged Deps", deps, wantDeps)
		sameLists(t, "merged Dependents", dependents, wantDependents)
		sameLists(t, "merged Succ", succ, wantDependents)
		if t.Failed() {
			t.Fatalf("trial %d", trial)
		}
	}
}

// Every read accessor only reads: goroutines may traverse one graph at once
// (the race detector checks it in CI).
func TestConcurrentReads(t *testing.T) {
	g := orderGraph(t)
	m := New()
	if err := m.Merge(g); err != nil {
		t.Fatal(err)
	}
	want, _, _ := lists(m)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deps, _, _ := lists(m)
			sameLists(t, "Deps", deps, want)
			if _, err := m.TopoSort(); err != nil {
				t.Error(err)
			}
			if _, _, err := m.CriticalPath(1); err != nil {
				t.Error(err)
			}
			if err := m.Validate(); err != nil {
				t.Error(err)
			}
			_ = m.Roots()
		}()
	}
	wg.Wait()
}
