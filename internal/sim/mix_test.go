package sim_test

import (
	"fmt"
	"testing"

	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// mixFabrics are the two fabric backends the mix runs on. The leaf-spine
// puts each of the mix's five hosts on its own leaf (see mixHosts), so every
// flow crosses the oversubscribed core.
var mixFabrics = []string{"bigswitch", "leafspine:hosts=16,spines=4,oversub=4"}

// mixWorkers are the golden paradigm cases' workers; psrv is the parameter
// server.
var mixWorkers = []string{"s0", "s1", "s2", "s3"}

// paradigmMix merges one job per ddlt compiler — the seven golden paradigm
// cases, renamed apart — into a single workload on s0..s3 and psrv.
func paradigmMix(t testing.TB) *ddlt.Workload {
	t.Helper()
	ws := mixWorkers
	model := ddlt.Uniform("m", 4, 6, 1, 0.5, 0.5)
	ppModel := ddlt.Uniform("m", 4, 2, 5, 1, 1)
	builders := []func() (*ddlt.Workload, error){
		ddlt.DPAllReduce{Name: "dp", Model: model, Workers: ws, BucketCount: 2, Iterations: 2}.Build,
		ddlt.DPParameterServer{Name: "ps", Model: model, Workers: ws[:3], PS: "psrv",
			BucketCount: 2, AggTime: 0.2, Iterations: 2}.Build,
		ddlt.PipelineGPipe{Name: "pp", Model: ppModel, Workers: ws, MicroBatches: 4, Iterations: 2}.Build,
		ddlt.Pipeline1F1B{Name: "1f1b", Model: ppModel, Workers: ws, MicroBatches: 4,
			UpdateTime: 0.2, Iterations: 2}.Build,
		ddlt.FSDP{Name: "fsdp", Model: ddlt.Uniform("m", 4, 3, 1, 0.5, 1), Workers: ws, Iterations: 2}.Build,
		ddlt.TensorParallel{Name: "tp", Model: ppModel, Workers: ws, Iterations: 2}.Build,
		ddlt.HybridTPPP{Name: "hy", Model: ppModel,
			StageWorkers: [][]string{{"s0", "s1"}, {"s2", "s3"}}, MicroBatches: 2, Iterations: 1}.Build,
	}
	var jobs []*ddlt.Workload
	for _, b := range builders {
		w, err := b()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, w)
	}
	w, err := ddlt.Merge(jobs...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// mixHosts lists the fabric's hosts: each mix host heads a run of 16, so on
// the 16-host leaves of mixFabrics each one sits on a leaf of its own. The
// idle hosts are slow, which sizes every leaf's uplinks (a quarter of the
// leaf's host capacity) below one mix host's NIC: the core binds.
func mixHosts() []fabric.HostCap {
	var caps []fabric.HostCap
	for _, h := range append(append([]string(nil), mixWorkers...), "psrv") {
		caps = append(caps, fabric.HostCap{Name: h, Egress: 6, Ingress: 6})
		for k := 1; k < 16; k++ {
			caps = append(caps, fabric.HostCap{Name: fmt.Sprintf("%s-idle%d", h, k), Egress: 0.5, Ingress: 0.5})
		}
	}
	return caps
}

// mixFabric builds one of mixFabrics over mixHosts.
func mixFabric(t testing.TB, spec string) fabric.Fabric {
	t.Helper()
	sp, err := fabric.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	net, err := sp.Build(mixHosts())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// shortName abbreviates a fabric spec for run names.
func shortName(spec string) string {
	if spec == "bigswitch" {
		return "bigswitch"
	}
	return "leafspine"
}

// gateMix sets staggered NotBefore gates on every fifth node of w, some of
// them landing before the node's dependencies finish and some after.
func gateMix(w *ddlt.Workload) {
	for i, n := range w.Graph.Nodes() {
		if i%5 == 0 {
			n.NotBefore = unit.Time(float64(i%7) * 0.75)
		}
	}
}

// zeroMix empties every third flow and every fourth compute of w, so chains
// of zero-size flows and zero-duration computes settle at one instant.
func zeroMix(w *ddlt.Workload) {
	flows, computes := 0, 0
	for _, n := range w.Graph.Nodes() {
		if n.Kind == dag.Comm {
			if flows++; flows%3 == 0 {
				n.Size = 0
			}
			continue
		}
		if computes++; computes%4 == 0 {
			n.Duration = 0
		}
	}
}
