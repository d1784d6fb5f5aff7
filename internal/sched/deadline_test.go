package sched

import (
	"errors"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// stopAfter returns a Stop that reports true from its (n+1)-th call on, and
// a pointer to the number of calls made.
func stopAfter(n int) (func() bool, *int) {
	calls := 0
	return func() bool {
		calls++
		return calls > n
	}, &calls
}

// stopFixture is three disjoint two-stage pipelines: three groups per loop,
// so a pass has six group boundaries (rank, then allocate).
func stopFixture(t *testing.T) (*Snapshot, *fabric.Network) {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b", "c", "d", "e", "f")
	groups := []*core.EchelonFlow{
		pairGroup(t, "g1", "a", "b", 2, 2, 2),
		pairGroup(t, "g2", "c", "d", 3, 1, 4),
		pairGroup(t, "g3", "e", "f", 1, 3, 1),
	}
	return orderedSnapshot(t, 0, groups, nil), net
}

// An armed Stop that never fires changes nothing: every scheduler variant
// returns bit-equal rates to the unarmed pass, and consults Stop at each of
// the pass's group (or, under GlobalEDF, class) boundaries.
func TestDeadlineIdentityWhenInBudget(t *testing.T) {
	for _, e := range []EchelonMADD{
		{Backfill: true},
		{Backfill: true, Cache: NewPlanCache()},
		{Backfill: true, GlobalEDF: true},
	} {
		snap, net := stopFixture(t)
		want, err := e.Schedule(snap, net)
		if err != nil {
			t.Fatal(err)
		}
		stop, calls := stopAfter(1 << 30)
		snap.Stop = stop
		got, err := e.Schedule(snap, net)
		if err != nil {
			t.Fatal(err)
		}
		sameRates(t, got, want, e.Name())
		boundaries := 6 // three groups ranked, three allocated
		if e.GlobalEDF {
			boundaries = 3 + 6 // three groups ranked, six classes planned
		}
		if *calls != boundaries {
			t.Errorf("%s: Stop consulted %d times, want %d", e.Name(), *calls, boundaries)
		}
	}
}

// A Stop that fires cuts the pass short at the next boundary with ErrStopped
// and no rates — at any boundary, in either loop — and the same snapshot is
// still a valid input for the max-min fair fallback, which ignores Stop.
func TestDeadlineOverrunFallsBackToFair(t *testing.T) {
	for _, global := range []bool{false, true} {
		e := EchelonMADD{Backfill: true, GlobalEDF: global}
		for n := 0; n < 6; n++ {
			snap, net := stopFixture(t)
			snap.Stop, _ = stopAfter(n)
			rates, err := e.Schedule(snap, net)
			if !errors.Is(err, ErrStopped) || rates != nil {
				t.Fatalf("%s stopping after %d boundaries: rates %v, err %v; want ErrStopped", e.Name(), n, rates, err)
			}
			fair, err := Fair{}.Schedule(snap, net)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Feasible(requestsOf(snap.Flows), fair); err != nil || len(fair) != len(snap.Flows) {
				t.Fatalf("fallback on the stopped snapshot: %v (%d rates)", err, len(fair))
			}
		}
	}
}

// A stopped pass captures no incremental state: after a stopped full pass and
// a stopped patch, an unbounded patch still applies against the last
// completed pass, bit-equal to a cold full Schedule.
func TestDeltaStoppedPassKeepsState(t *testing.T) {
	snap, net := stopFixture(t)
	d := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	if _, err := d.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	groups := []*core.EchelonFlow{snap.Groups["g1"].Group, snap.Groups["g2"].Group, snap.Groups["g3"].Group}
	next := orderedSnapshot(t, 0, groups, map[string]unit.Bytes{"g1-f0": 0})

	next.Stop, _ = stopAfter(0)
	if _, err := d.Schedule(next, net); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped Schedule: err %v, want ErrStopped", err)
	}
	if _, ok, err := d.Apply(next, net, Delta{Groups: []string{"g1"}}); ok || !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped Apply: ok %v err %v, want ErrStopped", ok, err)
	}

	next.Stop = nil
	patch, ok, err := d.Apply(next, net, Delta{Groups: []string{"g1"}})
	if err != nil || !ok {
		t.Fatalf("Apply after the stopped passes: ok %v err %v (%+v)", ok, err, d.LastOutcome())
	}
	full, err := EchelonMADD{Backfill: true}.Schedule(next, net)
	if err != nil {
		t.Fatal(err)
	}
	sameRates(t, patch, full, "patch after stopped passes vs cold full")
}

// oneFlowSnapshot is a released 100-byte flow a->b in group "g" on a
// two-host network.
func oneFlowSnapshot(t *testing.T) (*Snapshot, *fabric.Network) {
	t.Helper()
	g, err := core.New("g", core.Coflow{}, &core.Flow{ID: "f", Src: "a", Dst: "b", Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	net := fabric.NewNetwork()
	net.AddUniformHosts(100, "a", "b")
	snap := &Snapshot{
		Now:    1,
		Groups: map[string]*GroupState{"g": {Group: g}},
		Flows:  []*FlowState{{Flow: g.Flows[0], GroupID: "g", Remaining: 100, Release: 0}},
	}
	return snap, net
}

// Back-to-back passes armed with a budget no healthy pass comes near never
// stop: there is no slot or helper goroutine left over from one pass for the
// next to find busy.
func TestDeadlineBackToBackPassesNeverBusy(t *testing.T) {
	d := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	snap, net := oneFlowSnapshot(t)
	snap.Stop, _ = stopAfter(1 << 30)
	const passes = 20000
	for i := 0; i < passes; i++ {
		if _, err := d.Schedule(snap, net); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := d.Apply(snap, net, Delta{Groups: []string{"g"}}); err != nil || !ok {
			t.Fatalf("pass %d: ok %v err %v", i, ok, err)
		}
	}
}
