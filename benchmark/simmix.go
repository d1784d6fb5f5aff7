package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
)

// simParadigms are all seven compilers; "hybrid" is not reachable through the
// job queue, so the mix builds it directly.
var simParadigms = []string{"dp", "ps", "pp", "1f1b", "tp", "fsdp", "hybrid"}

// simMixSpec sizes the sim-mix workload.
type simMixSpec struct {
	hosts, pool int // jobs are bound to every (hosts/pool)-th host
	workers     []int
	variants    int
}

// The deck is dealt exactly once (7 paradigms x workers x variants jobs), so
// every seed runs the same structures; the seed draws volumes, compute times
// and the order of the deck. The pool is a stride through the fabric: few
// enough hosts that jobs share NICs, one per leaf so that all leaf-spine
// traffic crosses the oversubscribed core.
var simMixFull = simMixSpec{hosts: 256, pool: 16, workers: []int{2}, variants: 1}

// simFabrics are the two halves of every repetition.
var simFabrics = []string{"bigswitch", "leafspine:hosts=16,spines=4,oversub=4"}

// buildFabric builds a fabric spec over n uniform 1 GB/s hosts.
func buildFabric(spec string, n int) (fabric.Fabric, error) {
	sp, err := fabric.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	caps := make([]fabric.HostCap, n)
	for i, name := range hostNames(n) {
		caps[i] = fabric.HostCap{Name: name, Egress: nicRate, Ingress: nicRate}
	}
	return sp.Build(caps)
}

// simMix is one seed's compiled mix plus the fabrics it runs on.
type simMix struct {
	work    *ddlt.Workload
	nets    []fabric.Fabric
	flows   int
	nodes   int
	buildMS float64 // ddlt compile + merge
}

// buildSimMix deals the seven-paradigm deck once, binds each job to a run of
// pool hosts overlapping its neighbours' — shared hosts are what makes NICs
// contended — and merges them. "hybrid" is dealt as a wire.JobSpec
// like the rest and compiled here, since the queue cannot.
func buildSimMix(seed int64, spec simMixSpec) (*simMix, error) {
	gen := newJobGen(seed, 0, 1, jobShape{paradigms: simParadigms, workers: spec.workers, iters: []int{1}, variants: spec.variants})
	var names []string
	for i, h := range hostNames(spec.hosts) {
		if i%(spec.hosts/spec.pool) == 0 {
			names = append(names, h)
		}
	}
	t0 := time.Now()
	var ws []*ddlt.Workload
	for i := range gen.deck {
		js := gen.next()
		need := queue.HostsNeeded(js)
		if js.Paradigm == "hybrid" {
			need = 2 * js.Workers // Workers pipeline stages, tensor-parallel degree 2
		}
		// Job i takes `need` consecutive pool hosts starting two after job
		// i-1's start, so every job shares hosts with its neighbours. The
		// contention structure is the same for every seed (random binding
		// moved throughput by ±8 % with the seed); which paradigms are
		// neighbours follows the seed's shuffle of the deck.
		hosts := make([]string, need)
		for k := range hosts {
			hosts[k] = names[(2*i+k)%len(names)]
		}
		var w *ddlt.Workload
		var err error
		if js.Paradigm == "hybrid" {
			sw := make([][]string, js.Workers)
			for s := range sw {
				sw[s] = hosts[2*s : 2*s+2]
			}
			w, err = ddlt.HybridTPPP{
				Name: js.ID, Model: ddlt.Uniform(js.ID, max(js.Layers, js.Workers), js.Params, js.Acts, js.Fwd, js.Bwd),
				StageWorkers: sw, MicroBatches: 2, Iterations: js.Iterations,
			}.Build()
		} else {
			w, err = queue.Build(js, hosts)
		}
		if err != nil {
			return nil, fmt.Errorf("sim-mix job %s (%s): %w", js.ID, js.Paradigm, err)
		}
		ws = append(ws, w)
	}
	merged, err := ddlt.Merge(ws...)
	if err != nil {
		return nil, err
	}
	m := &simMix{work: merged, buildMS: ms(time.Since(t0))}
	for _, n := range merged.Graph.Nodes() {
		m.nodes++
		if n.Kind == dag.Comm {
			m.flows++
		}
	}
	for _, fs := range simFabrics {
		net, err := buildFabric(fs, spec.hosts)
		if err != nil {
			return nil, err
		}
		m.nets = append(m.nets, net)
	}
	return m, nil
}

// simOutcome is what one simulator run must reproduce bit for bit.
type simOutcome struct {
	tardiness, makespan float64
	schedCalls          int
}

// runOnce runs the mix on one fabric with a fresh scheduler and plan cache.
// wrap, when non-nil, interposes the traced run's meters.
func (m *simMix) runOnce(net fabric.Fabric, wrap func(sched.Scheduler, fabric.Fabric) (sched.Scheduler, fabric.Fabric)) (simOutcome, time.Duration, time.Duration, error) {
	var s sched.Scheduler = sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}
	if wrap != nil {
		s, net = wrap(s, net)
	}
	t0 := time.Now()
	sm, err := sim.New(sim.Options{Graph: m.work.Graph, Net: net, Scheduler: s, Arrangements: m.work.Arrangements})
	if err != nil {
		return simOutcome{}, 0, 0, err
	}
	tNew := time.Since(t0)
	res, err := sm.Run()
	total := time.Since(t0)
	if err != nil {
		return simOutcome{}, 0, 0, err
	}
	if len(res.Flows) != m.flows {
		return simOutcome{}, 0, 0, fmt.Errorf("sim-mix: %d of %d flows completed", len(res.Flows), m.flows)
	}
	for id, f := range res.Flows {
		if f.Finish < f.Release || math.IsNaN(float64(f.Finish)) {
			return simOutcome{}, 0, 0, fmt.Errorf("sim-mix: flow %s finishes at %v before its release %v", id, f.Finish, f.Release)
		}
	}
	// TotalTardiness with no names sums in map order, which moves the last
	// bit between runs; a sorted order keeps the figure exact.
	gids := make([]string, 0, len(res.Groups))
	for gid := range res.Groups {
		gids = append(gids, gid)
	}
	sort.Strings(gids)
	out := simOutcome{tardiness: float64(res.TotalTardiness(gids...)), makespan: float64(res.Makespan), schedCalls: res.SchedulerCalls}
	return out, tNew, total, nil
}
