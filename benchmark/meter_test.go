package main

import (
	"math"
	"testing"
	"time"

	"echelonflow/internal/coordinator"
	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
)

// fixedSnapshot compiles 64 jobs onto a 256-host leaf-spine fabric and
// releases the first three flows of every group: a fixed, contended
// scheduling input.
func fixedSnapshot(t *testing.T) (*sched.Snapshot, fabric.Fabric) {
	t.Helper()
	netw, err := buildFabric("leafspine:hosts=16,spines=4,oversub=4", 256)
	if err != nil {
		t.Fatal(err)
	}
	gen := newJobGen(7, 0, 1, jobShape{paradigms: liveParadigms, workers: []int{2, 4}, iters: []int{1}})
	names := hostNames(256)
	snap := &sched.Snapshot{Now: 1, Groups: make(map[string]*sched.GroupState)}
	for j := 0; j < 64; j++ {
		spec := gen.next()
		need := queue.HostsNeeded(spec)
		hosts := make([]string, need)
		for k := range hosts {
			hosts[k] = names[(j*3+k*5)%len(names)] // jobs overlap, so NICs and uplinks are shared
		}
		w, err := queue.Build(spec, hosts)
		if err != nil {
			t.Fatal(err)
		}
		groups, err := queue.Groups(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			snap.Groups[g.ID] = &sched.GroupState{Group: g, Reference: 0.5}
			for i, f := range g.Flows {
				if i == 3 {
					break
				}
				snap.Flows = append(snap.Flows, &sched.FlowState{Flow: f, GroupID: g.ID, Remaining: f.Size, Release: 0.5})
			}
		}
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	return snap, netw
}

// without returns snap with one flow finished, and the group it belonged to.
func without(snap *sched.Snapshot, i int) (*sched.Snapshot, string) {
	out := &sched.Snapshot{Now: snap.Now + 0.001, Groups: snap.Groups}
	out.Flows = append(append([]*sched.FlowState(nil), snap.Flows[:i]...), snap.Flows[i+1:]...)
	return out, snap.Flows[i].GroupID
}

func sameRates(t *testing.T, what string, bare, wrapped map[string]unit.Rate) {
	t.Helper()
	if len(bare) != len(wrapped) {
		t.Fatalf("%s: %d rates bare, %d wrapped", what, len(bare), len(wrapped))
	}
	for id, r := range bare {
		w, ok := wrapped[id]
		if !ok || math.Float64bits(float64(r)) != math.Float64bits(float64(w)) {
			t.Fatalf("%s: flow %s bare %v wrapped %v (present %v)", what, id, r, w, ok)
		}
	}
}

// The metered scheduler and counting fabric must be invisible: bit-identical
// rate maps and identical applied/fallback outcomes against the bare objects.
func TestWrappersAreTransparent(t *testing.T) {
	snap, netw := fixedSnapshot(t)
	newSched := func() *sched.DeltaEchelon {
		return sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()})
	}
	bare, inner := newSched(), newSched()
	wrapped, m := meter(inner, time.Now())
	wd, ok := wrapped.(sched.DeltaScheduler)
	if !ok {
		t.Fatal("metered DeltaEchelon does not implement DeltaScheduler")
	}
	if wrapped.Name() != bare.Name() {
		t.Errorf("Name: %q vs %q", wrapped.Name(), bare.Name())
	}
	if wrapped.(interface{ PlanCache() *sched.PlanCache }).PlanCache() != inner.PlanCache() {
		t.Error("PlanCache is not forwarded")
	}
	cf := &countingFabric{Fabric: netw}

	// Cold state: both must refuse the patch.
	if _, ok, _ := bare.Apply(snap, netw, sched.Delta{}); ok {
		t.Fatal("bare Apply on cold state accepted")
	}
	if _, ok, _ := wd.Apply(snap, cf, sched.Delta{}); ok {
		t.Fatal("wrapped Apply on cold state accepted")
	}
	if b, w := bare.LastOutcome().Reason, inner.LastOutcome().Reason; b != w {
		t.Errorf("cold fallback reason: %q vs %q", b, w)
	}

	rb, err := bare.Schedule(snap, netw)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := wrapped.Schedule(snap, cf)
	if err != nil {
		t.Fatal(err)
	}
	sameRates(t, "full pass", rb, rw)
	if err := netw.Feasible(requestsOfSnap(snap), rw); err != nil {
		t.Errorf("full pass infeasible: %v", err)
	}

	// A declared single-group event: the delta path.
	next, gid := without(snap, 5)
	db, okb, errb := bare.Apply(next, netw, sched.Delta{Groups: []string{gid}})
	dw, okw, errw := wd.Apply(next, cf, sched.Delta{Groups: []string{gid}})
	if okb != okw || (errb == nil) != (errw == nil) {
		t.Fatalf("declared delta: ok %v/%v err %v/%v", okb, okw, errb, errw)
	}
	if !okb {
		t.Fatalf("declared delta fell back (%s); the fixture should take the delta path", bare.LastOutcome().Reason)
	}
	sameRates(t, "delta pass", db, dw)

	// Undeclared drift: both must fall back, for the same reason.
	drift, _ := without(next, 40)
	_, okb, _ = bare.Apply(drift, netw, sched.Delta{Groups: []string{gid}})
	_, okw, _ = wd.Apply(drift, cf, sched.Delta{Groups: []string{gid}})
	if okb || okw {
		t.Fatalf("undeclared drift accepted: bare %v wrapped %v", okb, okw)
	}
	if b, w := bare.LastOutcome().Reason, inner.LastOutcome().Reason; b != w || b == "" {
		t.Errorf("drift fallback reason: %q vs %q", b, w)
	}

	calls := m.take()
	var applies, fallbacks, fulls int
	for _, c := range calls {
		switch {
		case !c.apply:
			fulls++
		case c.ok:
			applies++
		default:
			fallbacks++
		}
	}
	if applies != 1 || fallbacks != 2 || fulls != 1 {
		t.Errorf("call log: %d applied, %d fallbacks, %d full; want 1, 2, 1", applies, fallbacks, fulls)
	}
	if cf.flowLinks.load() == 0 || cf.linkCaps.load() == 0 {
		t.Errorf("fabric counters did not move: %d FlowLinks, %d LinkCapacity", cf.flowLinks.load(), cf.linkCaps.load())
	}
}

func requestsOfSnap(snap *sched.Snapshot) []fabric.Request {
	var reqs []fabric.Request
	for _, fs := range snap.Flows {
		reqs = append(reqs, fabric.Request{ID: fs.Flow.ID, Src: fs.Flow.Src, Dst: fs.Flow.Dst})
	}
	return reqs
}

// coordinator.New resolves the delta path and the plan cache by type
// assertion; both must survive the meter (and sched.Instrument on top of it).
func TestCoordinatorResolvesHandlesThroughMeter(t *testing.T) {
	netw, err := buildFabric("bigswitch", 8)
	if err != nil {
		t.Fatal(err)
	}
	cache := sched.NewPlanCache()
	s, m := meter(sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: cache}), time.Now())
	reg := telemetry.NewRegistry()
	placer := &timedPlacer{inner: queue.Spread{}, epoch: time.Now()}
	c, err := coordinator.New(coordinator.Options{
		Net: &countingFabric{Fabric: netw}, Scheduler: s, Metrics: reg,
		Queue: queue.New(queue.Options{Placer: placer, MaxJobs: 2}),
		Logf:  func(f string, a ...interface{}) { t.Errorf("coordinator logged: "+f, a...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := newJobGen(1, 0, 1, jobShape{paradigms: []string{"dp"}, workers: []int{3}, iters: []int{1}}).next()
	if err := c.SubmitJob("t", spec); err != nil {
		t.Fatal(err)
	}
	_, hosts, ok := c.JobStatus(spec.ID)
	if !ok || len(hosts) != 3 {
		t.Fatalf("job not admitted: %v %v", hosts, ok)
	}
	if placer.Name() != "spread" || len(placer.take()) != 1 {
		t.Error("timed placer was not the one consulted, or lost its name")
	}
	j := &activeJob{spec: spec, hosts: hosts}
	tn := &tenant{in: &liveInstance{flows: &flowTable{m: map[string][2]string{}}}}
	if err := tn.compile(j); err != nil {
		t.Fatal(err)
	}
	for !j.done() {
		if _, err := c.FlowEvent(j.step(2)); err != nil {
			t.Fatal(err)
		}
	}
	var applied int
	for _, call := range m.take() {
		if call.apply && call.ok {
			applied++
		}
	}
	if applied == 0 {
		t.Error("no delta Apply reached the metered scheduler: the coordinator did not resolve DeltaScheduler through it")
	}
	if got := reg.Counter(coordinator.MetricDeltaApplied, "").Value(); got == 0 {
		t.Error("coordinator counted no applied deltas")
	}
	if cache.Stats().Invalidations == 0 {
		t.Error("no plan-cache invalidation: the coordinator did not resolve PlanCache through the meter")
	}
	if _, running := c.QueueDepth(); running != 0 {
		t.Errorf("%d jobs still admitted after the last finish", running)
	}
}
