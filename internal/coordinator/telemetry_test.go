package coordinator

import (
	"math"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

func newTelemetryCoordinator(t *testing.T, clk *clock.Manual) (*Coordinator, *telemetry.Registry, *telemetry.EventLog) {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	reg := telemetry.NewRegistry()
	evl := telemetry.NewEventLog(128)
	c, err := New(Options{
		Net:       net,
		Scheduler: sched.EchelonMADD{Backfill: true},
		Clock:     clk,
		Logf:      t.Logf,
		Metrics:   reg,
		Events:    evl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, reg, evl
}

// gaugeValue reads one gauge series from a snapshot; NaN if absent.
func gaugeValue(snap []telemetry.SnapshotFamily, name string, labels map[string]string) float64 {
	for _, f := range snap {
		if f.Name != name {
			continue
		}
	series:
		for _, s := range f.Series {
			if len(s.Labels) != len(labels) {
				continue
			}
			for k, v := range labels {
				if s.Labels[k] != v {
					continue series
				}
			}
			return s.Value
		}
	}
	return math.NaN()
}

func TestTelemetryEagerFamilies(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c, reg, _ := newTelemetryCoordinator(t, clk)
	defer c.Close()
	// The CI smoke test curls /metrics on a freshly booted coordinator: the
	// tardiness gauge and scheduler latency histogram families must already
	// exist with zero traffic.
	snap := reg.Snapshot()
	if v := gaugeValue(snap, MetricTotalTardiness, nil); v != 0 {
		t.Errorf("fresh total tardiness gauge = %v, want 0", v)
	}
	found := false
	for _, f := range snap {
		if f.Name == "echelon_schedule_seconds" {
			found = true
		}
	}
	if !found {
		t.Error("schedule latency family not registered eagerly")
	}
}

func TestTelemetryTardinessGaugesMatchTotal(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c, reg, evl := newTelemetryCoordinator(t, clk)
	defer c.Close()
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	// Finish f0 late: it runs [0, 5] against a pipeline deadline of r+2.
	clk.Advance(5 * time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	total := gaugeValue(snap, MetricTotalTardiness, nil)
	perGroup := gaugeValue(snap, MetricGroupTardiness, map[string]string{"group": "job/pp"})
	weighted := gaugeValue(snap, MetricGroupWeightedTardiness, map[string]string{"group": "job/pp"})
	if math.IsNaN(total) || math.IsNaN(perGroup) || math.IsNaN(weighted) {
		t.Fatalf("missing gauges: total=%v group=%v weighted=%v", total, perGroup, weighted)
	}
	if perGroup <= 0 {
		t.Errorf("group tardiness gauge = %v, want > 0 (finished 3s late)", perGroup)
	}
	// Acceptance bar: the weighted gauge sum equals TotalTardiness to 1e-9.
	want := float64(c.TotalTardiness())
	if math.Abs(weighted-want) > 1e-9 {
		t.Errorf("weighted gauge sum = %v, TotalTardiness = %v (diff %g)", weighted, want, weighted-want)
	}
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("total gauge = %v, TotalTardiness = %v", total, want)
	}

	// Lifecycle events were recorded in order.
	kinds := make(map[string]int)
	for _, e := range evl.Tail(0) {
		kinds[e.Kind]++
	}
	if kinds[telemetry.EventRegister] != 1 || kinds[telemetry.EventRelease] != 1 || kinds[telemetry.EventFinish] != 1 {
		t.Errorf("event kinds = %v", kinds)
	}
	for _, e := range evl.Tail(0) {
		if e.Kind == telemetry.EventFinish && math.Abs(e.Tardiness-perGroup) > 1e-9 {
			t.Errorf("finish event tardiness = %v, gauge = %v", e.Tardiness, perGroup)
		}
	}

	// Reschedule counters moved.
	if got := reg.Counter(MetricReschedules, "").Value(); got == 0 {
		t.Error("reschedule counter did not advance")
	}
	if got := reg.Histogram(MetricRescheduleLat, "").Count(); got == 0 {
		t.Error("reschedule latency histogram is empty")
	}

	// Unregistering drops the per-group gauges and refreshes the total.
	if _, err := c.UnregisterGroup("job/pp"); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if v := gaugeValue(snap, MetricGroupTardiness, map[string]string{"group": "job/pp"}); !math.IsNaN(v) {
		t.Errorf("group gauge survived unregister: %v", v)
	}
	if v := gaugeValue(snap, MetricTotalTardiness, nil); v != 0 {
		t.Errorf("total gauge after unregister = %v, want 0", v)
	}
}

func TestTelemetryNilRegistryUnchanged(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := newTestCoordinator(t, clk) // no Metrics/Events configured
	defer c.Close()
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	if got := c.Reschedules(); got == 0 {
		t.Error("coordinator without telemetry stopped scheduling")
	}
}

// countingDelta counts the calls a coordinator makes into its scheduler.
type countingDelta struct {
	*sched.DeltaEchelon
	schedules, applies int
}

func (s *countingDelta) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	s.schedules++
	return s.DeltaEchelon.Schedule(snap, net)
}

func (s *countingDelta) Apply(snap *sched.Snapshot, net fabric.Fabric, d sched.Delta) (map[string]unit.Rate, bool, error) {
	s.applies++
	return s.DeltaEchelon.Apply(snap, net, d)
}

// The coordinator exports every scheduler call it makes, applied deltas and
// full passes alike, in one call count that the latency histogram agrees
// with; and each failed pass is one scheduler error.
func TestTelemetrySchedulerCalls(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	s := &countingDelta{DeltaEchelon: sched.NewDelta(sched.EchelonMADD{Backfill: true})}
	reg := telemetry.NewRegistry()
	c, err := New(Options{Net: net, Scheduler: s, Clock: clk, Logf: t.Logf, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := core.New("job/dp", core.Coflow{},
		&core.Flow{ID: "d0", Src: "w2", Dst: "w3", Size: 30},
		&core.Flow{ID: "d1", Src: "w3", Dst: "w2", Size: 30},
	)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := core.New("job/solo", core.Coflow{}, &core.Flow{ID: "s0", Src: "w1", Dst: "w3", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*core.EchelonFlow{pipelineGroup(t), dp} {
		if err := c.RegisterGroup("a1", g); err != nil {
			t.Fatal(err)
		}
	}
	event := func(group, flow, ev string) {
		t.Helper()
		if _, err := c.FlowEvent(wire.FlowEvent{GroupID: group, FlowID: flow, Event: ev}); err != nil {
			t.Fatal(err)
		}
	}
	event("job/pp", "f0", wire.EventReleased)
	event("job/dp", "d0", wire.EventReleased)
	event("job/dp", "d1", wire.EventReleased)
	// Registering a group takes a full pass.
	if err := c.RegisterGroup("a1", solo); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	event("job/pp", "f0", wire.EventFinished)
	event("job/pp", "f1", wire.EventReleased)
	clk.Advance(time.Second)
	event("job/dp", "d0", wire.EventFinished)
	event("job/dp", "d1", wire.EventFinished)
	if _, err := c.UnregisterGroup("job/dp"); err != nil {
		t.Fatal(err)
	}
	if s.applies == 0 || s.schedules == 0 {
		t.Fatalf("script took %d applies and %d full passes, want both", s.applies, s.schedules)
	}
	name := s.Name()
	calls := reg.Counter(MetricSchedCalls, "", "scheduler", name).Value()
	observed := reg.Histogram(MetricSchedLat, "", "scheduler", name).Count()
	if want := uint64(s.applies + s.schedules); calls != want || observed != want {
		t.Errorf("calls counter %d, latency observations %d; scheduler saw %d applies + %d schedules",
			calls, observed, s.applies, s.schedules)
	}

	fail := false
	reg = telemetry.NewRegistry()
	c2, err := New(Options{Net: net, Scheduler: flakySched{inner: sched.EchelonMADD{Backfill: true}, fail: &fail},
		Clock: clk, Logf: t.Logf, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.RegisterGroup("a1", pipelineGroup(t)); err != nil {
		t.Fatal(err)
	}
	fail = true
	failed := 0
	for _, ev := range []string{wire.EventReleased, wire.EventFinished} {
		if _, err := c2.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: ev}); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no pass failed")
	}
	if got := reg.Counter(MetricSchedErrors, "", "scheduler", "flaky").Value(); got != uint64(failed) {
		t.Errorf("errors counter %d, failed passes %d", got, failed)
	}
}
