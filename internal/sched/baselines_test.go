package sched

import (
	"math"
	"reflect"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// flowDesc is a compact flow description for the baseline tables.
type flowDesc struct {
	id       string
	src, dst string
	rem      unit.Bytes
	release  unit.Time
}

// baselineSnapshot wraps each flow in its own singleton coflow — grouping is
// irrelevant to the group-oblivious baselines — and validates the result.
func baselineSnapshot(t *testing.T, now unit.Time, flows []flowDesc) *Snapshot {
	t.Helper()
	snap := &Snapshot{Now: now, Groups: make(map[string]*GroupState)}
	for _, d := range flows {
		f := &core.Flow{ID: d.id, Src: d.src, Dst: d.dst, Size: d.rem}
		g, err := core.NewCoflow("flow:"+d.id, f)
		if err != nil {
			t.Fatal(err)
		}
		snap.Groups[g.ID] = &GroupState{Group: g, Reference: d.release}
		snap.Flows = append(snap.Flows, &FlowState{
			Flow: f, GroupID: g.ID, Remaining: d.rem, Release: d.release,
		})
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestBaselineSchedulers(t *testing.T) {
	type hostDesc struct {
		name       string
		egress, in unit.Rate
	}
	cases := []struct {
		name  string
		hosts []hostDesc
		flows []flowDesc
		want  map[string]map[string]unit.Rate // scheduler name -> flow -> rate
	}{
		{
			// A host with zero capacity gets a zero allocation without
			// starving flows elsewhere on the fabric.
			name: "zero capacity host",
			hosts: []hostDesc{
				{"z", 0, 0}, {"a", 2, 2}, {"b", 2, 2},
			},
			flows: []flowDesc{
				{id: "dead", src: "z", dst: "b", rem: 1, release: 0},
				{id: "live", src: "a", dst: "b", rem: 5, release: 1},
			},
			want: map[string]map[string]unit.Rate{
				"fair": {"dead": 0, "live": 2},
				"srpt": {"dead": 0, "live": 2},
				"fifo": {"dead": 0, "live": 2},
			},
		},
		{
			// Single-flow degenerate case: every baseline saturates the
			// bottleneck port (ingress 1 here, below egress 3).
			name:  "single flow",
			hosts: []hostDesc{{"a", 3, 3}, {"b", 3, 1}},
			flows: []flowDesc{{id: "only", src: "a", dst: "b", rem: 7, release: 0}},
			want: map[string]map[string]unit.Rate{
				"fair": {"only": 1},
				"srpt": {"only": 1},
				"fifo": {"only": 1},
			},
		},
		{
			// Two flows share one link. Fair splits; SRPT gives the link to
			// the smaller remaining volume; FIFO to the earlier release.
			name:  "contended link",
			hosts: []hostDesc{{"a", 2, 2}, {"b", 2, 2}},
			flows: []flowDesc{
				{id: "big-early", src: "a", dst: "b", rem: 9, release: 0},
				{id: "small-late", src: "a", dst: "b", rem: 1, release: 5},
			},
			want: map[string]map[string]unit.Rate{
				"fair": {"big-early": 1, "small-late": 1},
				"srpt": {"big-early": 0, "small-late": 2},
				"fifo": {"big-early": 2, "small-late": 0},
			},
		},
		{
			// Exact ties in remaining volume and release time: sortedCopy
			// breaks ties by flow ID, so the lexicographically smaller ID wins
			// the greedy fill in SRPT and FIFO.
			name:  "tie broken by flow ID",
			hosts: []hostDesc{{"a", 4, 4}, {"b", 4, 4}},
			flows: []flowDesc{
				{id: "y", src: "a", dst: "b", rem: 3, release: 1},
				{id: "x", src: "a", dst: "b", rem: 3, release: 1},
			},
			want: map[string]map[string]unit.Rate{
				"fair": {"x": 2, "y": 2},
				"srpt": {"x": 4, "y": 0},
				"fifo": {"x": 4, "y": 0},
			},
		},
		{
			// Disjoint links: nobody should be throttled by anyone else.
			name: "disjoint links",
			hosts: []hostDesc{
				{"a", 1, 1}, {"b", 1, 1}, {"c", 3, 3}, {"d", 3, 3},
			},
			flows: []flowDesc{
				{id: "ab", src: "a", dst: "b", rem: 2, release: 0},
				{id: "cd", src: "c", dst: "d", rem: 2, release: 0},
			},
			want: map[string]map[string]unit.Rate{
				"fair": {"ab": 1, "cd": 3},
				"srpt": {"ab": 1, "cd": 3},
				"fifo": {"ab": 1, "cd": 3},
			},
		},
	}

	schedulers := []Scheduler{Fair{}, SRPT{}, FIFO{}}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			net := fabric.NewNetwork()
			for _, h := range tc.hosts {
				if err := net.AddHost(h.name, "", h.egress, h.in); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range schedulers {
				want, ok := tc.want[s.Name()]
				if !ok {
					t.Fatalf("no expectation for scheduler %s", s.Name())
				}
				snap := baselineSnapshot(t, 10, tc.flows)
				rates, err := s.Schedule(snap, net)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				if len(rates) != len(tc.flows) {
					t.Errorf("%s: got %d rates, want one per flow (%d)", s.Name(), len(rates), len(tc.flows))
				}
				for id, w := range want {
					got, ok := rates[id]
					if !ok {
						t.Errorf("%s: no rate entry for %s", s.Name(), id)
						continue
					}
					if math.Abs(float64(got-w)) > 1e-9 {
						t.Errorf("%s: flow %s rate %v, want %v", s.Name(), id, got, w)
					}
				}
			}
		})
	}
}

// TestBaselineSchedulersDeterministic pins repeat-call determinism: the same
// snapshot must yield the identical allocation on every invocation, even
// with tied keys, because the coordinator diff harness compares runs
// bit-for-bit.
func TestBaselineSchedulersDeterministic(t *testing.T) {
	net := fabric.NewNetwork()
	net.AddUniformHosts(2, "a", "b", "c")
	flows := []flowDesc{
		{id: "f1", src: "a", dst: "b", rem: 2, release: 1},
		{id: "f0", src: "a", dst: "b", rem: 2, release: 1},
		{id: "f2", src: "c", dst: "b", rem: 2, release: 1},
	}
	for _, s := range []Scheduler{Fair{}, SRPT{}, FIFO{}} {
		first, err := s.Schedule(baselineSnapshot(t, 3, flows), net)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for i := 0; i < 20; i++ {
			again, err := s.Schedule(baselineSnapshot(t, 3, flows), net)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("%s: allocation changed between calls: %v vs %v", s.Name(), first, again)
			}
		}
	}
}

// TestBaselineSchedulersEmptySnapshot pins the no-flows degenerate case:
// an empty, non-nil rate map.
func TestBaselineSchedulersEmptySnapshot(t *testing.T) {
	net := fabric.NewNetwork()
	net.AddUniformHosts(1, "a", "b")
	for _, s := range []Scheduler{Fair{}, SRPT{}, FIFO{}} {
		rates, err := s.Schedule(&Snapshot{Now: 0}, net)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if rates == nil || len(rates) != 0 {
			t.Errorf("%s: want empty non-nil map, got %v", s.Name(), rates)
		}
	}
}
