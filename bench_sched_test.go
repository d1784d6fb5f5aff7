// BenchmarkSchedule_* is the scheduler scale suite: multi-job DP+PP+FSDP
// mixes on 64/256/512-host fabrics, driven through the event-loop simulator
// so the scheduler sees a realistic arrival/departure stream. Beyond the
// standard ns/op, each benchmark reports per-Schedule-call latency and
// allocation counts ("ns/schedcall", "allocs/schedcall"), the hot-path
// numbers tracked in BENCH_sched.json.
//
// Run with: go test -bench=BenchmarkSchedule_ -run=^$ .
package echelonflow

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// buildScaleMix compiles `jobs` training jobs — cycling through pipeline,
// DP-allreduce, and FSDP paradigms — onto one fabric of `hosts` uniform
// hosts. Jobs occupy disjoint 4-worker slices of the host set; the fabric
// retains its full size, so anything the scheduler does per host rather
// than per touched link shows up as growth with the cluster.
func buildScaleMix(hosts, jobs int) (*ddlt.Workload, *fabric.Network, error) {
	net := fabric.NewNetwork()
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%03d", i)
	}
	net.AddUniformHosts(10, names...)

	var ws []*ddlt.Workload
	for j := 0; j < jobs; j++ {
		workers := make([]string, 4)
		for k := range workers {
			workers[k] = names[(j*4+k)%hosts]
		}
		var (
			w   *ddlt.Workload
			err error
		)
		switch j % 3 {
		case 0:
			w, err = ddlt.PipelineGPipe{
				Name: fmt.Sprintf("pp%d", j), Model: ddlt.Uniform("m", 4, 2, 5, 1, 1),
				Workers: workers, MicroBatches: 4, Iterations: 1,
			}.Build()
		case 1:
			w, err = ddlt.DPAllReduce{
				Name: fmt.Sprintf("dp%d", j), Model: ddlt.Uniform("m", 4, 6, 1, 0.5, 0.5),
				Workers: workers, BucketCount: 2, Iterations: 1,
			}.Build()
		default:
			w, err = ddlt.FSDP{
				Name: fmt.Sprintf("fsdp%d", j), Model: ddlt.Uniform("m", 4, 3, 1, 0.5, 1),
				Workers: workers, Iterations: 1,
			}.Build()
		}
		if err != nil {
			return nil, nil, err
		}
		ws = append(ws, w)
	}
	merged, err := ddlt.Merge(ws...)
	if err != nil {
		return nil, nil, err
	}
	return merged, net, nil
}

// meteredScheduler wraps a Scheduler and measures wall time and heap
// allocation count of every Schedule call, isolating the hot path from the
// surrounding simulator work.
type meteredScheduler struct {
	inner   sched.Scheduler
	calls   int
	ns      int64
	mallocs uint64
}

func (m *meteredScheduler) Name() string { return m.inner.Name() }

func (m *meteredScheduler) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	rates, err := m.inner.Schedule(snap, net)
	m.ns += time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - before.Mallocs
	m.calls++
	return rates, err
}

// benchSchedule runs the mix to completion once per iteration with a fresh
// scheduler from mk, reporting aggregate per-call hot-path metrics.
func benchSchedule(b *testing.B, hosts, jobs int, mk func() sched.Scheduler) {
	b.Helper()
	var calls int
	var ns int64
	var mallocs uint64
	groupPeak := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, net, err := buildScaleMix(hosts, jobs)
		if err != nil {
			b.Fatal(err)
		}
		ms := &meteredScheduler{inner: mk()}
		simr, err := sim.New(sim.Options{
			Graph: w.Graph, Net: net, Scheduler: ms, Arrangements: w.Arrangements,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := simr.Run()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Groups) > groupPeak {
			groupPeak = len(res.Groups)
		}
		calls += ms.calls
		ns += ms.ns
		mallocs += ms.mallocs
		b.StartTimer()
	}
	b.StopTimer()
	if calls == 0 {
		b.Fatal("no scheduler calls recorded")
	}
	b.ReportMetric(float64(ns)/float64(calls), "ns/schedcall")
	b.ReportMetric(float64(mallocs)/float64(calls), "allocs/schedcall")
	b.ReportMetric(float64(calls)/float64(b.N), "schedcalls/run")
}

// echelon is the production configuration: EchelonMADD with backfill.
func echelon() sched.Scheduler {
	return sched.EchelonMADD{Backfill: true}
}

func BenchmarkSchedule_64Hosts4Jobs(b *testing.B) {
	benchSchedule(b, 64, 4, echelon)
}

func BenchmarkSchedule_256Hosts8Jobs(b *testing.B) {
	benchSchedule(b, 256, 8, echelon)
}

// budgetedScheduler arms every pass's Snapshot.Stop the way a coordinator
// with a SchedDeadline does — time since the pass began, against the budget.
type budgetedScheduler struct {
	sched.EchelonMADD
	budget time.Duration
}

func (s budgetedScheduler) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	start := time.Now()
	snap.Stop = func() bool { return time.Since(start) > s.budget }
	defer func() { snap.Stop = nil }()
	return s.EchelonMADD.Schedule(snap, net)
}

// echelonDeadline is the production configuration under a one-minute
// budget, which no pass comes near: the benchmark prices the budget's
// steady-state cost, one clock reading per group boundary.
func echelonDeadline() sched.Scheduler {
	return budgetedScheduler{EchelonMADD: sched.EchelonMADD{Backfill: true}, budget: time.Minute}
}

func BenchmarkSchedule_256Hosts8Jobs_Deadline(b *testing.B) {
	benchSchedule(b, 256, 8, echelonDeadline)
}

// BenchmarkSchedule_4096Hosts64Jobs_Overshoot measures how late a budgeted
// pass can return. A pass stops only at a group boundary, so the stretches
// it cannot cut short are: the setup before the first boundary (validation,
// link table, grouping — ns/setup), the longest single group's plan, solo
// or allocated (ns/group), and the backfill, clamp and feasibility check
// after the last boundary (ns/tail). The overshoot past an expired budget is
// the larger of the last two (ns/overshoot). Measured on a full pass over
// the 64-job steady state: every group is planned twice. Each metric is the
// median over the b.N passes of that pass's longest stretch, so a GC pause
// in one pass does not set it.
func BenchmarkSchedule_4096Hosts64Jobs_Overshoot(b *testing.B) {
	snap, net, _, err := buildEventWorld(4096, 64)
	if err != nil {
		b.Fatal(err)
	}
	s := sched.EchelonMADD{Backfill: true}
	var setup, group, tail, total []time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		last, longest := start, time.Duration(0)
		snap.Stop = func() bool {
			now := time.Now()
			if last == start {
				setup = append(setup, now.Sub(last))
			} else {
				longest = max(longest, now.Sub(last))
			}
			last = now
			return false
		}
		if _, err := s.Schedule(snap, net); err != nil {
			b.Fatal(err)
		}
		now := time.Now()
		group, tail, total = append(group, longest), append(tail, now.Sub(last)), append(total, now.Sub(start))
	}
	snap.Stop = nil
	median := func(ds []time.Duration) float64 {
		slices.Sort(ds)
		return float64(ds[len(ds)/2].Nanoseconds())
	}
	over := make([]time.Duration, len(group))
	for i := range group {
		over[i] = max(group[i], tail[i])
	}
	b.ReportMetric(median(setup), "ns/setup")
	b.ReportMetric(median(group), "ns/group")
	b.ReportMetric(median(tail), "ns/tail")
	b.ReportMetric(median(over), "ns/overshoot")
	b.ReportMetric(median(total), "ns/schedcall")
}

func BenchmarkSchedule_512Hosts12Jobs(b *testing.B) {
	if testing.Short() {
		b.Skip("512-host mix skipped in -short mode")
	}
	benchSchedule(b, 512, 12, echelon)
}

// buildEventWorld assembles a steady-state snapshot for the per-event
// benchmarks: `jobs` eight-flow pipeline groups on disjoint 4-worker slices
// of a `hosts`-host fabric, every flow released. The snapshot follows the
// coordinator's assembly discipline (sorted groups, arrangement-order
// flows) so the schedulers see exactly what a live event would hand them.
func buildEventWorld(hosts, jobs int) (*sched.Snapshot, *fabric.Network, []string, error) {
	net := fabric.NewNetwork()
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%04d", i)
	}
	net.AddUniformHosts(10, names...)

	snap := &sched.Snapshot{Groups: make(map[string]*sched.GroupState, jobs)}
	gids := make([]string, 0, jobs)
	for j := 0; j < jobs; j++ {
		workers := make([]string, 4)
		for k := range workers {
			workers[k] = names[(j*4+k)%hosts]
		}
		flows := make([]*core.Flow, 8)
		for k := range flows {
			flows[k] = &core.Flow{
				ID:    fmt.Sprintf("j%02df%d", j, k),
				Src:   workers[k%4],
				Dst:   workers[(k+1)%4],
				Size:  unit.Bytes(64 + 8*k),
				Stage: k,
			}
		}
		g, err := core.New(fmt.Sprintf("job%02d", j), core.Pipeline{T: 2}, flows...)
		if err != nil {
			return nil, nil, nil, err
		}
		snap.Groups[g.ID] = &sched.GroupState{Group: g}
		for _, f := range g.Flows {
			snap.Flows = append(snap.Flows, &sched.FlowState{Flow: f, GroupID: g.ID, Remaining: f.Size})
		}
		gids = append(gids, g.ID)
	}
	return snap, net, gids, nil
}

// benchScheduleEvent measures the single-event hot path at steady state:
// each iteration finishes (or re-releases) one flow of one group, then asks
// either the incremental scheduler for a patch over the touched group
// (delta=true) or the full scheduler for a cluster-wide re-solve
// (delta=false) — the two paths a coordinator flow event can
// take. Only the scheduling call itself is timed.
func benchScheduleEvent(b *testing.B, hosts, jobs int, delta bool) {
	b.Helper()
	base, net, gids, err := buildEventWorld(hosts, jobs)
	if err != nil {
		b.Fatal(err)
	}
	deltaS := sched.NewDelta(sched.EchelonMADD{Backfill: true})
	fullS := sched.EchelonMADD{Backfill: true}

	// The toggled flow is each group's last pipeline stage; groups keep
	// their seven other flows, so membership changes but never vanishes.
	lastOf := make(map[string]string, len(gids))
	for _, fs := range base.Flows {
		lastOf[fs.GroupID] = fs.Flow.ID
	}
	absent := make(map[string]bool, len(gids))
	rebuild := func() *sched.Snapshot {
		snap := &sched.Snapshot{Now: base.Now, Groups: base.Groups}
		snap.Flows = make([]*sched.FlowState, 0, len(base.Flows))
		for _, fs := range base.Flows {
			if !absent[fs.Flow.ID] {
				snap.Flows = append(snap.Flows, fs)
			}
		}
		return snap
	}

	// One full pass warms the pooled tables and captures the incremental
	// state.
	if delta {
		_, err = deltaS.Schedule(rebuild(), net)
	} else {
		_, err = fullS.Schedule(rebuild(), net)
	}
	if err != nil {
		b.Fatal(err)
	}

	var ns int64
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gid := gids[i%len(gids)]
		fid := lastOf[gid]
		absent[fid] = !absent[fid]
		snap := rebuild()
		var before, after runtime.MemStats
		if delta {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			_, ok, err := deltaS.Apply(snap, net, sched.Delta{Groups: []string{gid}})
			ns += time.Since(t0).Nanoseconds()
			runtime.ReadMemStats(&after)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				b.Fatalf("delta fell back on event %d: %s", i, deltaS.LastOutcome().Reason)
			}
		} else {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			_, err := fullS.Schedule(snap, net)
			ns += time.Since(t0).Nanoseconds()
			runtime.ReadMemStats(&after)
			if err != nil {
				b.Fatal(err)
			}
		}
		mallocs += after.Mallocs - before.Mallocs
	}
	b.StopTimer()
	b.ReportMetric(float64(ns)/float64(b.N), "ns/schedcall")
	b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/schedcall")
}

func BenchmarkSchedule_2048Hosts64Jobs_DeltaEvent(b *testing.B) {
	benchScheduleEvent(b, 2048, 64, true)
}

func BenchmarkSchedule_2048Hosts64Jobs_FullEvent(b *testing.B) {
	benchScheduleEvent(b, 2048, 64, false)
}

func BenchmarkSchedule_4096Hosts64Jobs_DeltaEvent(b *testing.B) {
	if testing.Short() {
		b.Skip("4096-host mix skipped in -short mode")
	}
	benchScheduleEvent(b, 4096, 64, true)
}

func BenchmarkSchedule_4096Hosts64Jobs_FullEvent(b *testing.B) {
	if testing.Short() {
		b.Skip("4096-host mix skipped in -short mode")
	}
	benchScheduleEvent(b, 4096, 64, false)
}
