package dag_test

import (
	"slices"
	"testing"

	"echelonflow/internal/ddlt"
)

// TestIndexAccessorsAgree checks Index, Succ and NumPred against the string
// API (Nodes, Dependents, Deps) on a graph of every ddlt paradigm.
func TestIndexAccessorsAgree(t *testing.T) {
	ws := []string{"w0", "w1", "w2", "w3"}
	model := ddlt.Uniform("m", 4, 6, 1, 0.5, 0.5)
	builds := map[string]func() (*ddlt.Workload, error){
		"dp":     ddlt.DPAllReduce{Name: "dp", Model: model, Workers: ws, BucketCount: 2, Iterations: 2}.Build,
		"ps":     ddlt.DPParameterServer{Name: "ps", Model: model, Workers: ws[:3], PS: "psrv", BucketCount: 2, AggTime: 0.2, Iterations: 2}.Build,
		"gpipe":  ddlt.PipelineGPipe{Name: "pp", Model: model, Workers: ws, MicroBatches: 4, Iterations: 2}.Build,
		"1f1b":   ddlt.Pipeline1F1B{Name: "pp", Model: model, Workers: ws, MicroBatches: 4, UpdateTime: 0.2, Iterations: 2}.Build,
		"fsdp":   ddlt.FSDP{Name: "fsdp", Model: model, Workers: ws, Iterations: 2}.Build,
		"tp":     ddlt.TensorParallel{Name: "tp", Model: model, Workers: ws, Iterations: 2}.Build,
		"hybrid": ddlt.HybridTPPP{Name: "hy", Model: model, StageWorkers: [][]string{{"w0", "w1"}, {"w2", "w3"}}, MicroBatches: 2, Iterations: 1}.Build,
	}
	for name, build := range builds {
		w, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := w.Graph
		nodes := g.Nodes()
		for i, n := range nodes {
			if got := g.Index(n.ID); got != i {
				t.Fatalf("%s: Index(%q) = %d, want %d", name, n.ID, got, i)
			}
			var succ []string
			for _, s := range g.Succ(i) {
				succ = append(succ, nodes[s].ID)
			}
			if want := g.Dependents(n.ID); !slices.Equal(succ, want) {
				t.Fatalf("%s: Succ(%d) names %q, Dependents(%q) = %q", name, i, succ, n.ID, want)
			}
			if got, want := g.NumPred(i), len(g.Deps(n.ID)); got != want {
				t.Fatalf("%s: NumPred(%d) = %d, len(Deps(%q)) = %d", name, i, got, n.ID, want)
			}
		}
		if got := g.Index("no such node"); got != -1 {
			t.Fatalf("%s: Index of a missing ID = %d, want -1", name, got)
		}
	}
}
