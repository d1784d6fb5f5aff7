package sched_test

import (
	"errors"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/coordinator"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// The coordinator is what instruments a scheduler: it times every call it
// makes and exports the counts under the scheduler's name. These tests drive
// schedulers from this package through it.

// stubScheduler counts calls and, while fail is set, fails them.
type stubScheduler struct {
	calls, errs int
	fail        bool
}

func (s *stubScheduler) Name() string { return "stub" }

func (s *stubScheduler) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	s.calls++
	if s.fail {
		s.errs++
		return nil, errors.New("stub failure")
	}
	return sched.Fair{}.Schedule(snap, net)
}

// countingDelta counts the incremental and full passes of a delta scheduler.
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

func instrumentCoordinator(t *testing.T, s sched.Scheduler) (*coordinator.Coordinator, *telemetry.Registry) {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	reg := telemetry.NewRegistry()
	c, err := coordinator.New(coordinator.Options{
		Net:       net,
		Scheduler: s,
		Clock:     clock.NewManual(time.Unix(1000, 0)),
		Logf:      t.Logf,
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, reg
}

func instrumentPipeline(t *testing.T) *core.EchelonFlow {
	t.Helper()
	g, err := core.New("job/pp", core.Pipeline{T: 2},
		&core.Flow{ID: "f0", Src: "w1", Dst: "w2", Size: 20, Stage: 0},
		&core.Flow{ID: "f1", Src: "w1", Dst: "w2", Size: 20, Stage: 1},
		&core.Flow{ID: "f2", Src: "w1", Dst: "w2", Size: 20, Stage: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInstrumentCounters(t *testing.T) {
	stub := &stubScheduler{}
	c, reg := instrumentCoordinator(t, stub)
	if err := c.RegisterGroup("a1", instrumentPipeline(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	stub.fail = true
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased}); err == nil {
		t.Fatal("expected the scheduler's error to surface")
	}
	if stub.calls < 2 || stub.errs == 0 {
		t.Fatalf("stub saw %d calls, %d failed; want a success and a failure", stub.calls, stub.errs)
	}
	if got := reg.Counter(coordinator.MetricSchedCalls, "", "scheduler", "stub").Value(); got != uint64(stub.calls) {
		t.Errorf("calls = %d, want %d", got, stub.calls)
	}
	if got := reg.Counter(coordinator.MetricSchedErrors, "", "scheduler", "stub").Value(); got != uint64(stub.errs) {
		t.Errorf("errors = %d, want %d", got, stub.errs)
	}
	if got := reg.Histogram(coordinator.MetricSchedLat, "", "scheduler", "stub").Count(); got != uint64(stub.calls) {
		t.Errorf("latency observations = %d, want %d", got, stub.calls)
	}
}
