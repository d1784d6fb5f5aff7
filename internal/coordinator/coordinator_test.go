package coordinator

import (
	"strings"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

func newTestCoordinator(t *testing.T, clk *clock.Manual) *Coordinator {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	c, err := New(Options{
		Net:       net,
		Scheduler: sched.EchelonMADD{Backfill: true},
		Clock:     clk,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pipelineGroup(t *testing.T) *core.EchelonFlow {
	t.Helper()
	g, err := core.New("job/pp", core.Pipeline{T: 2},
		&core.Flow{ID: "f0", Src: "w1", Dst: "w2", Size: 20, Stage: 0},
		&core.Flow{ID: "f1", Src: "w1", Dst: "w2", Size: 20, Stage: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("nil Net accepted")
	}
	net := fabric.NewNetwork()
	c, err := New(Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if c.opts.Scheduler == nil || c.opts.Clock == nil || c.opts.Logf == nil {
		t.Error("defaults not applied")
	}
}

func TestRegisterValidation(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := newTestCoordinator(t, clk)
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("a1", g); err == nil {
		t.Error("duplicate registration accepted")
	}
	ghost, _ := core.NewCoflow("ghost", &core.Flow{ID: "x", Src: "w1", Dst: "nowhere", Size: 1})
	if err := c.RegisterGroup("a1", ghost); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestFlowLifecycle(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := newTestCoordinator(t, clk)
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	// Release the head flow at t=0: it alone gets scheduled.
	rates, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased})
	if err != nil {
		t.Fatal(err)
	}
	if rates["f0"] <= 0 {
		t.Errorf("head flow rate = %v", rates["f0"])
	}
	ref, _, err := c.GroupStatus("job/pp")
	if err != nil || !ref.ApproxEq(0) {
		t.Errorf("reference = %v, %v", ref, err)
	}
	// Second flow released 1s later.
	clk.Advance(time.Second)
	rates, err = c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rates["f1"]; !ok {
		t.Error("f1 missing from allocation")
	}
	// Head finishes at t=2: tardiness = finish - deadline(stage0, ref=0) = 2.
	clk.Advance(time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	_, tard, err := c.GroupStatus("job/pp")
	if err != nil || !tard.ApproxEq(2) {
		t.Errorf("achieved tardiness = %v, %v; want 2", tard, err)
	}
}

func TestFlowEventErrors(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := newTestCoordinator(t, clk)
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	cases := []wire.FlowEvent{
		{GroupID: "ghost", FlowID: "f0", Event: wire.EventReleased},
		{GroupID: "job/pp", FlowID: "ghost", Event: wire.EventReleased},
		{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}, // before release
		{GroupID: "job/pp", FlowID: "f0", Event: "exploded"},
	}
	for i, ev := range cases {
		if _, err := c.FlowEvent(ev); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err == nil {
		t.Error("double release accepted")
	}
}

// The fluid model: after advancing time at a known rate, the remaining
// volume shrinks, so the recomputed rate for a deadline-paced flow drops.
func TestFluidProgressEstimation(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	fnet := fabric.NewNetwork()
	fnet.AddUniformHosts(10, "w1", "w2", "w3")
	// No backfill: rates are the minimal pacing, which exposes the fluid
	// remaining-volume estimate directly.
	c, err0 := New(Options{Net: fnet, Scheduler: sched.EchelonMADD{}, Clock: clk, Logf: t.Logf})
	if err0 != nil {
		t.Fatal(err0)
	}
	g, _ := core.New("g", core.Pipeline{T: 10},
		&core.Flow{ID: "a", Src: "w1", Dst: "w2", Size: 20, Stage: 1},
		&core.Flow{ID: "head", Src: "w1", Dst: "w2", Size: 0.0001, Stage: 0},
	)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "g", FlowID: "head", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "g", FlowID: "head", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	rates, err := c.FlowEvent(wire.FlowEvent{GroupID: "g", FlowID: "a", Event: wire.EventReleased})
	if err != nil {
		t.Fatal(err)
	}
	// Deadline 10: 20 bytes in 10s => rate 2.
	if r := rates["a"]; r < 1.9 || r > 2.1 {
		t.Errorf("initial paced rate = %v, want ~2", r)
	}
	clk.Advance(5 * time.Second)
	rates, err = c.Tick()
	if err != nil {
		t.Fatal(err)
	}
	// 10 bytes left, 5s to deadline: still ~2 — advance further to drift.
	if r := rates["a"]; r < 1.9 || r > 2.1 {
		t.Errorf("mid-flight rate = %v, want ~2", r)
	}
	if c.Reschedules() < 3 {
		t.Errorf("reschedules = %d", c.Reschedules())
	}
}

func TestUnregister(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := newTestCoordinator(t, clk)
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UnregisterGroup("job/pp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UnregisterGroup("job/pp"); err == nil {
		t.Error("double unregister accepted")
	}
	if _, _, err := c.GroupStatus("job/pp"); err == nil {
		t.Error("status of removed group accepted")
	}
}

// Competing groups from different owners are scheduled jointly.
func TestMultiGroupAllocation(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "w1", "w2")
	c, err := New(Options{Net: net, Clock: clk, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := core.NewCoflow("g1", &core.Flow{ID: "x", Src: "w1", Dst: "w2", Size: 5})
	g2, _ := core.NewCoflow("g2", &core.Flow{ID: "y", Src: "w1", Dst: "w2", Size: 5})
	if err := c.RegisterGroup("a", g1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("b", g2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "g1", FlowID: "x", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	rates, err := c.FlowEvent(wire.FlowEvent{GroupID: "g2", FlowID: "y", Event: wire.EventReleased})
	if err != nil {
		t.Fatal(err)
	}
	total := rates["x"] + rates["y"]
	if total > 1+unit.Rate(unit.Eps) {
		t.Errorf("joint allocation %v exceeds link capacity", total)
	}
	if total <= 0 {
		t.Errorf("no bandwidth allocated: %v", rates)
	}
}

func TestErrorMessagesName(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := newTestCoordinator(t, clk)
	_, err := c.FlowEvent(wire.FlowEvent{GroupID: "nope", FlowID: "f", Event: wire.EventReleased})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error should name the group: %v", err)
	}
}
