package sim

import (
	"testing"

	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
)

// TestSettleWaves pins the settle wave rule: promote, release comms, start
// computes, and whatever a wave finishes at zero time readies its
// dependents only for the next wave.
func TestSettleWaves(t *testing.T) {
	// Compute a (Seq 5) is ready on host h in wave 1; b (Seq 2) becomes
	// ready only when the zero-duration z finishes in wave 1, whether z's
	// host sorts before h or after it. a holds h by then.
	for _, zhost := range []string{"g", "i"} {
		g := dag.New()
		g.MustAdd(&dag.Node{ID: "a", Kind: dag.Compute, Host: "h", Duration: 1, Seq: 5})
		g.MustAdd(&dag.Node{ID: "z", Kind: dag.Compute, Host: zhost})
		g.MustAdd(&dag.Node{ID: "b", Kind: dag.Compute, Host: "h", Duration: 1, Seq: 2})
		g.MustDepend("z", "b")
		net := fabric.NewNetwork()
		net.AddUniformHosts(1, "g", "h", "i")
		s, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := res.Tasks["a"], res.Tasks["b"]; a.Start != 0 || b.Start != 1 {
			t.Errorf("z on %s: a=%+v b=%+v, want a at 0 then b at 1", zhost, a, b)
		}
	}

	// A chain of zero-size flows is released one wave after another at
	// t=1: z2 and z3 release after f, which wave 1 releases beside z1
	// although it comes last in graph order.
	g := dag.New()
	g.MustAdd(&dag.Node{ID: "c0", Kind: dag.Compute, Host: "a", Duration: 1})
	prev := "c0"
	for _, id := range []string{"z1", "z2", "z3"} {
		g.MustAdd(&dag.Node{ID: id, Kind: dag.Comm, Src: "a", Dst: "b"})
		g.MustDepend(prev, id)
		prev = id
	}
	g.MustAdd(&dag.Node{ID: "c1", Kind: dag.Compute, Host: "b", Duration: 1})
	g.MustDepend("z3", "c1")
	g.MustAdd(&dag.Node{ID: "f", Kind: dag.Comm, Src: "a", Dst: "b", Size: 2})
	g.MustDepend("c0", "f")
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	evl := telemetry.NewEventLog(64)
	s, err := New(Options{Graph: g, Net: net, Scheduler: sched.Fair{}, Events: evl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range evl.Tail(0) {
		if e.Kind != telemetry.EventResched {
			got = append(got, e.Kind+" "+e.Flow)
		}
	}
	want := []string{"release z1", "finish z1", "release f", "release z2", "finish z2",
		"release z3", "finish z3", "finish f"}
	if len(got) != len(want) {
		t.Fatalf("events %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events %q, want %q", got, want)
		}
	}
	for _, id := range []string{"z1", "z2", "z3"} {
		if f := res.Flows[id]; f.Release != 1 || f.Finish != 1 {
			t.Errorf("%s = %+v, want released and finished at 1", id, f)
		}
	}
	if c1 := res.Tasks["c1"]; c1.Start != 1 {
		t.Errorf("c1 = %+v, want start at 1", c1)
	}
}
