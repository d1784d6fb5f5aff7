package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/faults"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// equivScheduler is the golden-equivalence harness: every snapshot is
// scheduled twice in a row by the configuration under test, and the two rate
// maps must be byte-identical — a pass reads nothing an earlier pass left in
// the pooled link and path tables. The first pass's rates drive the
// simulation, so any divergence is caught at the first event where it
// appears, not just in aggregate results.
type equivScheduler struct {
	t     *testing.T
	s     sched.Scheduler
	calls int
}

func (e *equivScheduler) Name() string { return e.s.Name() }

func (e *equivScheduler) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	e.calls++
	want, errSeed := e.s.Schedule(snap, net)
	got, errAgain := e.s.Schedule(snap, net)
	if (errSeed == nil) != (errAgain == nil) {
		e.t.Fatalf("call %d at t=%v: first err %v, repeat err %v", e.calls, snap.Now, errSeed, errAgain)
	}
	if errSeed != nil {
		return want, errSeed
	}
	if len(got) != len(want) {
		e.t.Fatalf("call %d at t=%v: rate map sizes differ (%d vs %d)", e.calls, snap.Now, len(got), len(want))
	}
	for id, r := range want {
		if g, ok := got[id]; !ok || g != r {
			e.t.Fatalf("call %d at t=%v: rate[%s] = %v repeated vs %v first", e.calls, snap.Now, id, g, r)
		}
	}
	return want, errSeed
}

// assertGolden runs the workload once under the equivalence harness.
func assertGolden(t *testing.T, base sched.EchelonMADD, opts sim.Options) {
	t.Helper()
	eq := &equivScheduler{t: t, s: base}
	opts.Scheduler = eq
	simr, err := sim.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simr.Run(); err != nil {
		t.Fatal(err)
	}
	if eq.calls == 0 {
		t.Fatal("scheduler never invoked")
	}
	t.Logf("%d scheduler calls", eq.calls)
}

// uniformOpts wires a built workload onto a uniform fabric.
func uniformOpts(t *testing.T, w *ddlt.Workload, err error, cap unit.Rate) sim.Options {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	net := fabric.NewNetwork()
	net.AddUniformHosts(cap, w.Hosts...)
	return sim.Options{Graph: w.Graph, Net: net, Arrangements: w.Arrangements}
}

// paradigmCase is one ddlt workload builder shared by the golden tests.
type paradigmCase struct {
	name  string
	build func() (*ddlt.Workload, error)
}

// paradigmCases covers every ddlt paradigm the seed ships.
func paradigmCases() []paradigmCase {
	ws := []string{"s0", "s1", "s2", "s3"}
	model := ddlt.Uniform("m", 4, 6, 1, 0.5, 0.5)
	ppModel := ddlt.Uniform("m", 4, 2, 5, 1, 1)
	return []paradigmCase{
		{"dp-allreduce", func() (*ddlt.Workload, error) {
			return ddlt.DPAllReduce{Name: "dp", Model: model, Workers: ws, BucketCount: 2, Iterations: 2}.Build()
		}},
		{"dp-paramserver", func() (*ddlt.Workload, error) {
			return ddlt.DPParameterServer{Name: "ps", Model: model, Workers: ws[:3], PS: "psrv",
				BucketCount: 2, AggTime: 0.2, Iterations: 2}.Build()
		}},
		{"pp-gpipe", func() (*ddlt.Workload, error) {
			return ddlt.PipelineGPipe{Name: "pp", Model: ppModel, Workers: ws, MicroBatches: 4, Iterations: 2}.Build()
		}},
		{"pp-1f1b", func() (*ddlt.Workload, error) {
			return ddlt.Pipeline1F1B{Name: "pp", Model: ppModel, Workers: ws, MicroBatches: 4,
				UpdateTime: 0.2, Iterations: 2}.Build()
		}},
		{"fsdp", func() (*ddlt.Workload, error) {
			return ddlt.FSDP{Name: "fsdp", Model: ddlt.Uniform("m", 4, 3, 1, 0.5, 1), Workers: ws, Iterations: 2}.Build()
		}},
		{"tensor-parallel", func() (*ddlt.Workload, error) {
			return ddlt.TensorParallel{Name: "tp", Model: ppModel, Workers: ws, Iterations: 2}.Build()
		}},
		{"hybrid-tp-pp", func() (*ddlt.Workload, error) {
			return ddlt.HybridTPPP{Name: "hy", Model: ppModel,
				StageWorkers: [][]string{{"s0", "s1"}, {"s2", "s3"}}, MicroBatches: 2, Iterations: 1}.Build()
		}},
	}
}

// Every ddlt paradigm, event-driven, default production scheduler config.
func TestGoldenEquivalenceParadigms(t *testing.T) {
	for _, tc := range paradigmCases() {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			assertGolden(t, sched.EchelonMADD{Backfill: true}, uniformOpts(t, w, err, 6))
		})
	}
}

// The E8 shuffle batch: pure Coflow groups on a heterogeneous fabric.
func TestGoldenEquivalenceCoflowBatch(t *testing.T) {
	g, net, arrs, _ := coflowBatch()
	assertGolden(t, sched.EchelonMADD{Backfill: true},
		sim.Options{Graph: g, Net: net, Arrangements: arrs})
}

// The E9 workload in every cadence mode, interval ticks included.
func TestGoldenEquivalenceCadence(t *testing.T) {
	for _, mode := range []struct {
		name     string
		interval unit.Time
		only     bool
	}{
		{"per-event", 0, false},
		{"interval", 0.5, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			w, err := cadenceWorkload()
			opts := uniformOpts(t, w, err, 4)
			opts.Interval = mode.interval
			opts.IntervalOnly = mode.only
			assertGolden(t, sched.EchelonMADD{Backfill: true}, opts)
		})
	}
}

// The E10 incident: capacity changes mid-run must retire cached paths
// without disturbing equivalence. The incident is lowered from the typed
// fault schedule, as in the experiment itself.
func TestGoldenEquivalenceDegradedLink(t *testing.T) {
	w, err := degradeWorkload()
	opts := uniformOpts(t, w, err, 6)
	caps, dils, err := faults.CompileSim(degradeSchedule(), opts.Net)
	if err != nil {
		t.Fatal(err)
	}
	opts.CapacityChanges, opts.Dilations = caps, dils
	assertGolden(t, sched.EchelonMADD{Backfill: true}, opts)
}

// The E11 two-tier fabric: rack uplink profiles join the planning problem.
func TestGoldenEquivalenceRacks(t *testing.T) {
	for _, oversub := range []float64{1, 4} {
		t.Run(fmt.Sprintf("oversub%g", oversub), func(t *testing.T) {
			net, hosts, err := rackFabric(oversub)
			if err != nil {
				t.Fatal(err)
			}
			w, err := rackMixWorkload(hosts)
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, sched.EchelonMADD{Backfill: true},
				sim.Options{Graph: w.Graph, Net: net, Arrangements: w.Arrangements})
		})
	}
}

// Scheduler variants exercise every configuration knob: no backfill, LTF ordering, GlobalEDF planning, and the weighted objective.
func TestGoldenEquivalenceVariants(t *testing.T) {
	variants := []struct {
		name string
		base sched.EchelonMADD
	}{
		{"plain", sched.EchelonMADD{}},
		{"ltf", sched.EchelonMADD{Order: sched.LargestTardinessFirst, Backfill: true}},
		{"gedf", sched.EchelonMADD{GlobalEDF: true, Backfill: true}},
		{"weighted", sched.EchelonMADD{Weighted: true, Backfill: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			w, err := cadenceWorkload()
			opts := uniformOpts(t, w, err, 4)
			if v.base.Weighted {
				// Weight alternate groups so the weighted ordering really
				// differs from the unweighted one.
				opts.Weights = map[string]float64{}
				i := 0
				for gid := range w.Arrangements {
					if i%2 == 0 {
						opts.Weights[gid] = 3
					}
					i++
				}
			}
			assertGolden(t, v.base, opts)
		})
	}
}

// assertIdenticalRuns simulates the options twice — plain, and with an empty
// fault schedule compiled in — and requires byte-identical results.
func assertIdenticalRuns(t *testing.T, opts sim.Options) {
	t.Helper()
	empty, err := faults.Parse([]byte(`{"events":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	caps, dils, err := faults.CompileSim(empty, opts.Net)
	if err != nil {
		t.Fatal(err)
	}
	if caps != nil || dils != nil {
		t.Fatalf("empty schedule compiled to %v / %v, want nothing", caps, dils)
	}
	run := func(o sim.Options) *sim.Result {
		simr, err := sim.New(o)
		if err != nil {
			t.Fatal(err)
		}
		res, err := simr.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	opts.Scheduler = sched.EchelonMADD{Backfill: true}
	plain := run(opts)
	opts.CapacityChanges, opts.Dilations = caps, dils
	faulted := run(opts)
	if plain.Makespan != faulted.Makespan || plain.SchedulerCalls != faulted.SchedulerCalls {
		t.Fatalf("makespan/calls diverged: %v/%d vs %v/%d",
			plain.Makespan, plain.SchedulerCalls, faulted.Makespan, faulted.SchedulerCalls)
	}
	if !reflect.DeepEqual(plain.Flows, faulted.Flows) {
		t.Errorf("flow records diverged:\n%+v\nvs\n%+v", plain.Flows, faulted.Flows)
	}
	if !reflect.DeepEqual(plain.Tasks, faulted.Tasks) {
		t.Errorf("task spans diverged")
	}
	if !reflect.DeepEqual(plain.Groups, faulted.Groups) {
		t.Errorf("group results diverged")
	}
}

// An empty fault schedule must be a perfect no-op: it compiles to no
// capacity changes and no dilations, and a run carrying it is byte-identical
// to one without the faults plumbing — across every ddlt paradigm and the
// E8-E11 workloads.
func TestGoldenEmptyFaultSchedule(t *testing.T) {
	for _, tc := range paradigmCases() {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			assertIdenticalRuns(t, uniformOpts(t, w, err, 6))
		})
	}
	t.Run("e8-coflow-batch", func(t *testing.T) {
		g, net, arrs, _ := coflowBatch()
		assertIdenticalRuns(t, sim.Options{Graph: g, Net: net, Arrangements: arrs})
	})
	t.Run("e9-cadence", func(t *testing.T) {
		w, err := cadenceWorkload()
		opts := uniformOpts(t, w, err, 4)
		opts.Interval = 0.5
		assertIdenticalRuns(t, opts)
	})
	t.Run("e10-degrade", func(t *testing.T) {
		w, err := degradeWorkload()
		assertIdenticalRuns(t, uniformOpts(t, w, err, 6))
	})
	t.Run("e11-racks", func(t *testing.T) {
		net, hosts, err := rackFabric(4)
		if err != nil {
			t.Fatal(err)
		}
		w, err := rackMixWorkload(hosts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalRuns(t, sim.Options{Graph: w.Graph, Net: net, Arrangements: w.Arrangements})
	})
}
