package echelonflow

import (
	"testing"
)

// The facade test exercises the documented public API end to end, exactly
// as the package doc's quick start does.
func TestQuickStart(t *testing.T) {
	job := PipelineGPipe{
		Name:         "job",
		Model:        UniformModel("m", 8, 1e6, 4e5, 0.01, 0.02),
		Workers:      []string{"w0", "w1", "w2", "w3"},
		MicroBatches: 8,
		Iterations:   2,
	}
	w, err := job.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateUniform(w, 1e9, EchelonScheduler(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if len(res.Groups) == 0 || len(res.Flows) == 0 {
		t.Error("empty result maps")
	}
}

func TestFacadeConstructors(t *testing.T) {
	g, err := NewEchelonFlow("g", Pipeline{T: 1},
		&Flow{ID: "a", Src: "x", Dst: "y", Size: 1, Stage: 0})
	if err != nil || g.ID != "g" {
		t.Fatalf("NewEchelonFlow: %v", err)
	}
	c, err := NewCoflow("c", &Flow{ID: "b", Src: "x", Dst: "y", Size: 1})
	if err != nil || !c.IsCoflow() {
		t.Fatalf("NewCoflow: %v", err)
	}
	arr, err := NewFSDPArrangement(3, 1, 2)
	if err != nil || arr.Stages() != 6 {
		t.Fatalf("NewFSDPArrangement: %v", err)
	}
	if FlowTardiness(5, 3) != 2 {
		t.Error("FlowTardiness")
	}
	net := NewNetwork()
	if err := net.AddHost("h", "", 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSchedulers(t *testing.T) {
	names := map[string]bool{}
	for _, s := range []Scheduler{
		EchelonScheduler(true), EchelonScheduler(false),
		EchelonSchedulerGlobalEDF(true),
		CoflowScheduler(true), CoflowScheduler(false),
		FairScheduler(), SRPTScheduler(), FIFOScheduler(), EDFScheduler(),
	} {
		if s.Name() == "" || names[s.Name()] {
			t.Errorf("bad scheduler name %q", s.Name())
		}
		names[s.Name()] = true
	}
}

func TestMergeWorkloadsFacade(t *testing.T) {
	a, err := DPAllReduce{Name: "a", Model: UniformModel("m", 2, 4, 1, 1, 1),
		Workers: []string{"x", "y"}, BucketCount: 1, Iterations: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := TensorParallel{Name: "b", Model: UniformModel("m", 2, 4, 4, 1, 1),
		Workers: []string{"x", "y"}, Iterations: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeWorkloads(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateUniform(merged, 8, CoflowScheduler(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("merged simulation failed")
	}
}

func TestZooFacade(t *testing.T) {
	m, err := NewZooModel(ZooTransformer, 4, 1e6, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	w, err := FSDP{Name: "zoo", Model: m, Workers: []string{"a", "b"}, Iterations: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateUniform(w, 1e8, EchelonScheduler(true)); err != nil {
		t.Fatal(err)
	}
}
