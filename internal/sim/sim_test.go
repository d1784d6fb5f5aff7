package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
)

// fig2Workload builds the reconstructed motivating example of the paper's
// Fig. 2 (see DESIGN.md): one pipeline stage pair, three micro-batches of
// activations (1 byte each) released 0.6 apart on a unit link, successor
// computation time T = 7/3 per micro-batch.
func fig2Workload(t *testing.T) (*dag.Graph, *fabric.Network, map[string]core.Arrangement) {
	t.Helper()
	const T = unit.Time(7.0 / 3)
	g := dag.New()
	for i := 0; i < 3; i++ {
		g.MustAdd(&dag.Node{
			ID: "f" + string(rune('1'+i)), Kind: dag.Comm,
			Src: "w1", Dst: "w2", Size: 1,
			Group: "pp", Stage: i,
			NotBefore: unit.Time(0.6 * float64(i)),
		})
		g.MustAdd(&dag.Node{
			ID: "c" + string(rune('1'+i)), Kind: dag.Compute,
			Host: "w2", Duration: T, Seq: i,
		})
		g.MustDepend("f"+string(rune('1'+i)), "c"+string(rune('1'+i)))
		if i > 0 {
			g.MustDepend("c"+string(rune('0'+i)), "c"+string(rune('1'+i)))
		}
	}
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "w1", "w2")
	arrs := map[string]core.Arrangement{"pp": core.Pipeline{T: T}}
	return g, net, arrs
}

func runFig2(t *testing.T, s sched.Scheduler) *Result {
	t.Helper()
	g, net, arrs := fig2Workload(t)
	simr, err := New(Options{Graph: g, Net: net, Scheduler: s, Arrangements: arrs})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The headline numbers of the paper's Fig. 2: fair sharing finishes the
// computation phase at 8.5, Coflow scheduling at 10 (worse than fair!), and
// EchelonFlow scheduling at the optimal 8.
func TestFig2FairSharing(t *testing.T) {
	res := runFig2(t, sched.Fair{})
	if !res.Makespan.ApproxEq(8.5) {
		t.Errorf("fair makespan = %v, want 8.5", res.Makespan)
	}
}

func TestFig2CoflowScheduling(t *testing.T) {
	res := runFig2(t, sched.CoflowMADD{})
	if !res.Makespan.ApproxEq(10) {
		t.Errorf("coflow makespan = %v, want 10", res.Makespan)
	}
	// Defining Coflow behaviour: all three flows finish simultaneously.
	f1, f2, f3 := res.Flows["f1"].Finish, res.Flows["f2"].Finish, res.Flows["f3"].Finish
	if !f1.ApproxEq(f2) || !f2.ApproxEq(f3) || !f1.ApproxEq(3) {
		t.Errorf("coflow finishes = %v %v %v, want all 3", f1, f2, f3)
	}
}

func TestFig2EchelonScheduling(t *testing.T) {
	res := runFig2(t, sched.EchelonMADD{})
	if !res.Makespan.ApproxEq(8) {
		t.Errorf("echelon makespan = %v, want 8", res.Makespan)
	}
	// Staggered finishes matching the computation pattern: 1, 10/3, 17/3.
	want := []unit.Time{1, 10.0 / 3, 17.0 / 3}
	for i, id := range []string{"f1", "f2", "f3"} {
		if got := res.Flows[id].Finish; !got.ApproxEq(want[i]) {
			t.Errorf("%s finish = %v, want %v", id, got, want[i])
		}
	}
	// Uniform per-flow tardiness of 1: the echelon formation is maintained.
	for _, id := range []string{"f1", "f2", "f3"} {
		if got := res.Flows[id].Tardiness(); !got.ApproxEq(1) {
			t.Errorf("%s tardiness = %v, want 1", id, got)
		}
	}
	if got := res.Groups["pp"].Tardiness; !got.ApproxEq(1) {
		t.Errorf("group tardiness = %v, want 1", got)
	}
}

func TestFig2OrderingHolds(t *testing.T) {
	fair := runFig2(t, sched.Fair{}).Makespan
	coflow := runFig2(t, sched.CoflowMADD{}).Makespan
	echelon := runFig2(t, sched.EchelonMADD{}).Makespan
	if !(echelon < fair && fair < coflow) {
		t.Errorf("want echelon < fair < coflow, got %v %v %v", echelon, fair, coflow)
	}
}

func TestSimpleChain(t *testing.T) {
	// c1(2) -> f(4 bytes @ cap 2 -> 2s) -> c2(3): makespan 7.
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c1", Kind: dag.Compute, Host: "a", Duration: 2})
	g.MustAdd(&dag.Node{ID: "f", Kind: dag.Comm, Src: "a", Dst: "b", Size: 4})
	g.MustAdd(&dag.Node{ID: "c2", Kind: dag.Compute, Host: "b", Duration: 3})
	g.MustDepend("c1", "f")
	g.MustDepend("f", "c2")
	net := fabric.NewNetwork()
	net.AddUniformHosts(2, "a", "b")
	s, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Makespan.ApproxEq(7) {
		t.Errorf("makespan = %v, want 7", res.Makespan)
	}
	if span := res.Tasks["c2"]; !span.Start.ApproxEq(4) || !span.End.ApproxEq(7) {
		t.Errorf("c2 span = %+v", span)
	}
	if rec := res.Flows["f"]; !rec.Release.ApproxEq(2) || !rec.Finish.ApproxEq(4) {
		t.Errorf("flow record = %+v", rec)
	}
	// Singleton flow group exists with its own coflow arrangement.
	gr, ok := res.Groups["flow:f"]
	if !ok {
		t.Fatal("singleton group missing")
	}
	if !gr.Reference.ApproxEq(2) || !gr.Tardiness.ApproxEq(2) {
		t.Errorf("singleton group = %+v (want ref 2, tardiness 2)", gr)
	}
}

func TestHostSerialization(t *testing.T) {
	// Two independent computes on one host run serially, ordered by Seq.
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "late", Kind: dag.Compute, Host: "h", Duration: 1, Seq: 2})
	g.MustAdd(&dag.Node{ID: "early", Kind: dag.Compute, Host: "h", Duration: 1, Seq: 1})
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "h", "x")
	s, _ := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tasks["early"].Start.ApproxEq(0) || !res.Tasks["late"].Start.ApproxEq(1) {
		t.Errorf("spans: early=%+v late=%+v", res.Tasks["early"], res.Tasks["late"])
	}
	if !res.Makespan.ApproxEq(2) {
		t.Errorf("makespan = %v", res.Makespan)
	}
}

func TestZeroDurationAndZeroSize(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c0", Kind: dag.Compute, Host: "a", Duration: 0})
	g.MustAdd(&dag.Node{ID: "f0", Kind: dag.Comm, Src: "a", Dst: "b", Size: 0})
	g.MustAdd(&dag.Node{ID: "c1", Kind: dag.Compute, Host: "b", Duration: 1})
	g.MustDepend("c0", "f0")
	g.MustDepend("f0", "c1")
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	s, _ := New(Options{Graph: g, Net: net, Scheduler: sched.EchelonMADD{}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Makespan.ApproxEq(1) {
		t.Errorf("makespan = %v, want 1", res.Makespan)
	}
}

func TestNotBeforeGate(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c", Kind: dag.Compute, Host: "a", Duration: 1, NotBefore: 5})
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	s, _ := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tasks["c"].Start.ApproxEq(5) || !res.Makespan.ApproxEq(6) {
		t.Errorf("span = %+v, makespan = %v", res.Tasks["c"], res.Makespan)
	}
}

func TestNewValidation(t *testing.T) {
	g := dag.New()
	net := fabric.NewNetwork()
	if _, err := New(Options{Graph: nil, Net: net, Scheduler: sched.Fair{}}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(Options{Graph: g, Net: net, Scheduler: nil}); err == nil {
		t.Error("nil scheduler accepted")
	}
	// Unknown host in flow.
	g2 := dag.New()
	g2.MustAdd(&dag.Node{ID: "f", Kind: dag.Comm, Src: "a", Dst: "ghost", Size: 1})
	net2 := fabric.NewNetwork()
	net2.AddUniformHosts(1, "a", "b")
	if _, err := New(Options{Graph: g2, Net: net2, Scheduler: sched.Fair{}}); err == nil {
		t.Error("unknown flow host accepted")
	}
	// Unknown compute host.
	g3 := dag.New()
	g3.MustAdd(&dag.Node{ID: "c", Kind: dag.Compute, Host: "ghost", Duration: 1})
	if _, err := New(Options{Graph: g3, Net: net2, Scheduler: sched.Fair{}}); err == nil {
		t.Error("unknown compute host accepted")
	}
	// Grouped flows without an arrangement.
	g4 := dag.New()
	g4.MustAdd(&dag.Node{ID: "f1", Kind: dag.Comm, Src: "a", Dst: "b", Size: 1, Group: "grp"})
	g4.MustAdd(&dag.Node{ID: "f2", Kind: dag.Comm, Src: "a", Dst: "b", Size: 1, Group: "grp"})
	if _, err := New(Options{Graph: g4, Net: net2, Scheduler: sched.Fair{}}); err == nil {
		t.Error("group without arrangement accepted")
	}
}

func TestSimulatorSingleUse(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c", Kind: dag.Compute, Host: "a", Duration: 1})
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	s, _ := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run should fail")
	}
}

func TestRecordRates(t *testing.T) {
	res := func() *Result {
		g, net, arrs := fig2Workload(t)
		s, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}, Arrangements: arrs, RecordRates: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	if len(res.Rates) == 0 {
		t.Fatal("no rate segments recorded")
	}
	// Integrated volume per flow must equal its size.
	vol := map[string]float64{}
	for _, seg := range res.Rates {
		vol[seg.FlowID] += float64(seg.Rate.Over(seg.To - seg.From))
	}
	for _, id := range []string{"f1", "f2", "f3"} {
		if math.Abs(vol[id]-1) > 1e-6 {
			t.Errorf("integrated volume of %s = %v, want 1", id, vol[id])
		}
	}
}

func TestIntervalRescheduling(t *testing.T) {
	g, net, arrs := fig2Workload(t)
	s, err := New(Options{Graph: g, Net: net, Scheduler: sched.EchelonMADD{}, Arrangements: arrs, Interval: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Makespan.ApproxEq(8) {
		t.Errorf("interval-mode makespan = %v, want 8", res.Makespan)
	}
	evOnly := runFig2(t, sched.EchelonMADD{})
	if res.SchedulerCalls <= evOnly.SchedulerCalls {
		t.Errorf("interval mode should call the scheduler more often (%d vs %d)",
			res.SchedulerCalls, evOnly.SchedulerCalls)
	}
}

func TestDeterminism(t *testing.T) {
	first := runFig2(t, sched.EchelonMADD{Backfill: true})
	for i := 0; i < 3; i++ {
		again := runFig2(t, sched.EchelonMADD{Backfill: true})
		if !first.Makespan.ApproxEq(again.Makespan) {
			t.Fatalf("nondeterministic makespan: %v vs %v", first.Makespan, again.Makespan)
		}
		for id, rec := range first.Flows {
			if !again.Flows[id].Finish.ApproxEq(rec.Finish) {
				t.Fatalf("nondeterministic finish for %s", id)
			}
		}
	}
}

func TestTotalTardiness(t *testing.T) {
	res := runFig2(t, sched.EchelonMADD{})
	if got := res.TotalTardiness("pp"); !got.ApproxEq(1) {
		t.Errorf("TotalTardiness(pp) = %v", got)
	}
	if got := res.TotalTardiness(); !got.ApproxEq(1) {
		t.Errorf("TotalTardiness() = %v", got)
	}
}

// With no names given, TotalTardiness must sum in sorted group-ID order, not
// map order: these values make float addition order-dependent, so any other
// order changes the total's last bits from call to call.
func TestTotalTardinessSumsInSortedOrder(t *testing.T) {
	tard := []unit.Time{1e16, 1, 1, 1, 1, 0.5, 3, 0.25, 7, 2.5e15, 0.7, 5}
	res := &Result{Groups: make(map[string]GroupResult)}
	ids := make([]string, len(tard))
	for i, x := range tard {
		ids[i] = fmt.Sprintf("g%02d", i)
		g, err := core.NewCoflow(ids[i], &core.Flow{ID: ids[i] + "f", Src: "a", Dst: "b", Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		res.Groups[ids[i]] = GroupResult{Group: g, Tardiness: x}
	}
	var sorted, reversed unit.Time
	for i := range tard {
		sorted += tard[i]
		reversed += tard[len(tard)-1-i]
	}
	if sorted == reversed {
		t.Fatalf("test values are not order-dependent: %v either way", sorted)
	}
	if got := res.TotalTardiness(ids...); got != sorted {
		t.Fatalf("TotalTardiness(sorted IDs) = %.17g, want %.17g", float64(got), float64(sorted))
	}
	for call := 0; call < 50; call++ {
		if got := res.TotalTardiness(); got != sorted {
			t.Fatalf("call %d: TotalTardiness() = %.17g, want the sorted-order sum %.17g", call, float64(got), float64(sorted))
		}
	}
}

func TestMaxEventsGuard(t *testing.T) {
	g, net, arrs := fig2Workload(t)
	s, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}, Arrangements: arrs, MaxEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "events") {
		t.Errorf("expected event-guard error, got %v", err)
	}
}

func TestStatusString(t *testing.T) {
	if waiting.String() != "waiting" || done.String() != "done" {
		t.Error("status strings wrong")
	}
	if nodeStatus(9).String() != "status(9)" {
		t.Error("unknown status string wrong")
	}
}

// Group weights flow into the scheduler: under the weighted policy, the
// heavier of two otherwise-identical competing groups is served first.
func TestGroupWeights(t *testing.T) {
	build := func() *dag.Graph {
		g := dag.New()
		for _, job := range []string{"a-light", "z-heavy"} {
			src := "src0"
			if job == "z-heavy" {
				src = "src1"
			}
			for i := 0; i < 2; i++ {
				g.MustAdd(&dag.Node{
					ID: job + "-f" + string(rune('0'+i)), Kind: dag.Comm,
					Src: src, Dst: "dst", Size: 2, Group: job, Stage: i,
				})
			}
		}
		return g
	}
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "src0", "src1", "dst")
	arrs := map[string]core.Arrangement{
		"a-light": core.Pipeline{T: 1}, "z-heavy": core.Pipeline{T: 1},
	}
	run := func(weights map[string]float64) *Result {
		s, err := New(Options{
			Graph: build(), Net: net, Scheduler: sched.EchelonMADD{Backfill: true, Weighted: true},
			Arrangements: arrs, Weights: weights,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unweighted := run(nil)
	weighted := run(map[string]float64{"z-heavy": 4})
	// Without weights the lexicographic tie-break favours a-light; with
	// weight 4 the heavy group completes first.
	if unweighted.Groups["a-light"].CompletionTime >= unweighted.Groups["z-heavy"].CompletionTime {
		t.Errorf("unweighted: light %v should finish before heavy %v",
			unweighted.Groups["a-light"].CompletionTime, unweighted.Groups["z-heavy"].CompletionTime)
	}
	if weighted.Groups["z-heavy"].CompletionTime >= weighted.Groups["a-light"].CompletionTime {
		t.Errorf("weighted: heavy %v should finish before light %v",
			weighted.Groups["z-heavy"].CompletionTime, weighted.Groups["a-light"].CompletionTime)
	}
}

func TestGroupWeightsValidation(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "f", Kind: dag.Comm, Src: "a", Dst: "b", Size: 1, Group: "g"})
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	_, err := New(Options{
		Graph: g, Net: net, Scheduler: sched.Fair{},
		Arrangements: map[string]core.Arrangement{"g": core.Coflow{}},
		Weights:      map[string]float64{"g": -1},
	})
	if err == nil {
		t.Error("negative weight accepted")
	}
}

// Capacity changes rewire the fabric mid-run and the scheduler adapts: a
// link that halves mid-transfer doubles the remaining transfer time.
func TestCapacityChange(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "f", Kind: dag.Comm, Src: "a", Dst: "b", Size: 8})
	net := fabric.NewNetwork()
	net.AddUniformHosts(2, "a", "b")
	s, err := New(Options{
		Graph: g, Net: net, Scheduler: sched.Fair{},
		CapacityChanges: []CapacityChange{{At: 2, Host: "a", Egress: 1, Ingress: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// [0,2] at rate 2 ships 4; remaining 4 at rate 1 -> finish at 6.
	if !res.Flows["f"].Finish.ApproxEq(6) {
		t.Errorf("finish = %v, want 6", res.Flows["f"].Finish)
	}
}

// A capacity recovery speeds the flow back up.
func TestCapacityRecovery(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "f", Kind: dag.Comm, Src: "a", Dst: "b", Size: 8})
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	s, err := New(Options{
		Graph: g, Net: net, Scheduler: sched.Fair{},
		CapacityChanges: []CapacityChange{{At: 4, Host: "b", Egress: 4, Ingress: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// [0,4] at rate 1 ships 4; remaining 4: b ingress now 4 but a egress
	// still 1 -> rate stays 1? No: a's egress unchanged (1), so finish 8.
	if !res.Flows["f"].Finish.ApproxEq(8) {
		t.Errorf("finish = %v, want 8 (src egress still limits)", res.Flows["f"].Finish)
	}
}

func TestCapacityChangeValidation(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c", Kind: dag.Compute, Host: "a", Duration: 1})
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	if _, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{},
		CapacityChanges: []CapacityChange{{At: 1, Host: "ghost", Egress: 1, Ingress: 1}}}); err == nil {
		t.Error("unknown host accepted")
	}
	if _, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{},
		CapacityChanges: []CapacityChange{{At: -1, Host: "a", Egress: 1, Ingress: 1}}}); err == nil {
		t.Error("negative time accepted")
	}
}

// Eq. 4 is a *weighted* sum: doubling a group's weight doubles its
// contribution to the objective.
func TestWeightedTotalTardiness(t *testing.T) {
	g, net, arrs := fig2Workload(t)
	s, err := New(Options{
		Graph: g, Net: net, Scheduler: sched.EchelonMADD{}, Arrangements: arrs,
		Weights: map[string]float64{"pp": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The unweighted run achieves tardiness 1 (TestTotalTardiness); the
	// weighted objective counts it twice.
	if got := res.Groups["pp"].Tardiness; !got.ApproxEq(1) {
		t.Fatalf("tardiness = %v, want 1", got)
	}
	if got := res.TotalTardiness("pp"); !got.ApproxEq(2) {
		t.Errorf("TotalTardiness(pp) = %v, want 2 (weight applied)", got)
	}
	if got := res.TotalTardiness(); !got.ApproxEq(2) {
		t.Errorf("TotalTardiness() = %v, want 2 (weight applied)", got)
	}
	if got := res.TotalTardiness("no-such-group"); got != 0 {
		t.Errorf("TotalTardiness(no-such-group) = %v, want 0", got)
	}
}

// MaxEvents is an exact bound: a budget of 1 permits a single event-loop
// iteration, so a run needing more trips the guard (the seed's off-by-one
// allowed MaxEvents+1 iterations).
func TestMaxEventsExact(t *testing.T) {
	g, net, arrs := fig2Workload(t)
	s, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}, Arrangements: arrs, MaxEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "exceeded 1 events") {
		t.Errorf("expected MaxEvents=1 guard error, got %v", err)
	}
	// A workload that completes within the budget is unaffected.
	d := dag.New()
	d.MustAdd(&dag.Node{ID: "c", Kind: dag.Compute, Host: "w1", Duration: 1})
	s2, err := New(Options{Graph: d, Net: net, Scheduler: sched.Fair{}, MaxEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Run(); err != nil {
		t.Errorf("single-event run tripped the guard: %v", err)
	}
}

// In IntervalOnly mode a capacity decrease must force an immediate
// reschedule: holding the stale rates until the next tick would
// oversubscribe the shrunken port (and let the fluid model transmit faster
// than the fabric allows).
func TestIntervalOnlyCapacityChangeReschedules(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "f", Kind: dag.Comm, Src: "a", Dst: "b", Size: 8})
	net := fabric.NewNetwork()
	net.AddUniformHosts(2, "a", "b")
	s, err := New(Options{
		Graph: g, Net: net, Scheduler: sched.Fair{},
		Interval: 10, IntervalOnly: true, RecordRates: true,
		CapacityChanges: []CapacityChange{{At: 2, Host: "a", Egress: 1, Ingress: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// [0,2] at rate 2 ships 4; the change to capacity 1 must take effect at
	// t=2 (not at the t=10 tick), so the remaining 4 finish at 6.
	if !res.Flows["f"].Finish.ApproxEq(6) {
		t.Errorf("finish = %v, want 6 (reschedule at the capacity change)", res.Flows["f"].Finish)
	}
	// No recorded rate may oversubscribe the port after the change.
	for _, seg := range res.Rates {
		if seg.From >= 2-unit.Time(unit.Eps) && float64(seg.Rate) > 1+unit.Eps {
			t.Errorf("segment [%v,%v) rate %v oversubscribes capacity 1", seg.From, seg.To, seg.Rate)
		}
	}
}

// A straggle factor applied mid-compute rescales the remaining time: a
// duration-6 compute that slows 2x at t=2 finishes at 2 + 4*2 = 10, and a
// successor starting while straggling runs at the dilated speed until the
// factor is restored.
func TestComputeDilation(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c1", Kind: dag.Compute, Host: "a", Duration: 6})
	g.MustAdd(&dag.Node{ID: "c2", Kind: dag.Compute, Host: "a", Duration: 3})
	g.MustDepend("c1", "c2")
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	s, err := New(Options{
		Graph: g, Net: net, Scheduler: sched.Fair{},
		Dilations: []DilationChange{
			{At: 2, Host: "a", Factor: 2},
			{At: 11, Host: "a", Factor: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tasks["c1"].End.ApproxEq(10) {
		t.Errorf("c1 end = %v, want 10 (4 units left at 2x dilation)", res.Tasks["c1"].End)
	}
	// c2 starts at 10 under factor 2 (6 dilated units); at t=11 the factor
	// restores, shrinking the remaining 5 dilated units back to 2.5.
	if !res.Tasks["c2"].End.ApproxEq(13.5) {
		t.Errorf("c2 end = %v, want 13.5 (recovery mid-compute)", res.Tasks["c2"].End)
	}
}

// A dilation on an idle host only affects computes that start under it.
func TestComputeDilationBeforeStart(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c", Kind: dag.Compute, Host: "a", Duration: 4, NotBefore: 5})
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	s, err := New(Options{
		Graph: g, Net: net, Scheduler: sched.Fair{},
		Dilations: []DilationChange{{At: 1, Host: "a", Factor: 1.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tasks["c"].End.ApproxEq(11) {
		t.Errorf("end = %v, want 11 (start 5 + 4*1.5)", res.Tasks["c"].End)
	}
}

func TestDilationValidation(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c", Kind: dag.Compute, Host: "a", Duration: 1})
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	for _, bad := range []DilationChange{
		{At: 1, Host: "ghost", Factor: 2},
		{At: -1, Host: "a", Factor: 2},
		{At: 1, Host: "a", Factor: 0},
		{At: 1, Host: "a", Factor: -3},
	} {
		if _, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{},
			Dilations: []DilationChange{bad}}); err == nil {
			t.Errorf("invalid dilation %+v accepted", bad)
		}
	}
}

// New sorts the change schedules in copies: the caller's slices keep their
// order.
func TestNewLeavesOptionsUnchanged(t *testing.T) {
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "f", Kind: dag.Comm, Src: "a", Dst: "b", Size: 8})
	g.MustAdd(&dag.Node{ID: "c", Kind: dag.Compute, Host: "a", Duration: 8})
	net := fabric.NewNetwork()
	net.AddUniformHosts(2, "a", "b")
	caps := []CapacityChange{{At: 5, Host: "a", Egress: 2, Ingress: 2}, {At: 1, Host: "a", Egress: 1, Ingress: 1}}
	dils := []DilationChange{{At: 5, Host: "a", Factor: 1}, {At: 1, Host: "a", Factor: 2}}
	wantCaps := append([]CapacityChange(nil), caps...)
	wantDils := append([]DilationChange(nil), dils...)
	s, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}, CapacityChanges: caps, Dilations: dils})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range caps {
		if caps[i] != wantCaps[i] {
			t.Errorf("CapacityChanges after New+Run = %+v, want %+v", caps, wantCaps)
			break
		}
	}
	for i := range dils {
		if dils[i] != wantDils[i] {
			t.Errorf("Dilations after New+Run = %+v, want %+v", dils, wantDils)
			break
		}
	}
}
