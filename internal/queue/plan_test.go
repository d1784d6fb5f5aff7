package queue_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"echelonflow/internal/check"
	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/queue"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// planSpecs is every paradigm x workers {2, 3, 8, 16} x three shape variants,
// then every job check.Generate draws over seeds 1..200.
func planSpecs() []wire.JobSpec {
	var out []wire.JobSpec
	for _, p := range []string{"dp", "ps", "pp", "1f1b", "tp", "fsdp"} {
		for _, w := range []int{2, 3, 8, 16} {
			for v := 0; v < 3; v++ {
				j := wire.JobSpec{ID: fmt.Sprintf("%s-%d-%d", p, w, v), Paradigm: p, Workers: w,
					Layers: 2 + v, Params: unit.Bytes(1e9 + 3e8*float64(v)), Acts: 7e8, Fwd: 0.1, Bwd: 0.15,
					Iterations: 1 + v%2, Weight: float64(v) / 2}
				switch p {
				case "dp", "ps":
					j.Buckets = v
					if p == "ps" {
						j.AggTime = 0.05
					}
				case "pp", "1f1b":
					j.Micro, j.UpdateTime, j.Layers = 2+v, 0.05, max(j.Layers, w)
				case "fsdp":
					j.Prefetch = v
				}
				out = append(out, j)
			}
		}
	}
	for seed := uint64(1); seed <= 200; seed++ {
		for _, j := range check.Generate(seed).Jobs {
			out = append(out, wire.JobSpec{
				ID: fmt.Sprintf("s%d/%s", seed, j.Name), Paradigm: j.Paradigm, Workers: len(j.Workers),
				Layers: j.Model.Layers, Params: j.Model.Params, Acts: j.Model.Acts,
				Fwd: j.Model.Fwd, Bwd: j.Model.Bwd, AggTime: j.AggTime, Buckets: j.Buckets,
				Micro: j.Micro, UpdateTime: j.UpdateTime, Prefetch: j.Prefetch,
				Iterations: j.Iterations, Weight: j.Weight,
			})
		}
	}
	return out
}

// sameGroups compares two group lists field for field, sizes by their bits.
func sameGroups(got, want []*core.EchelonFlow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Weight != w.Weight || !reflect.DeepEqual(g.Arrangement, w.Arrangement) || len(g.Flows) != len(w.Flows) {
			return fmt.Errorf("group %d: %s w=%v %#v (%d flows), want %s w=%v %#v (%d flows)",
				i, g.ID, g.Weight, g.Arrangement, len(g.Flows), w.ID, w.Weight, w.Arrangement, len(w.Flows))
		}
		for k, f := range g.Flows {
			e := w.Flows[k]
			if f.ID != e.ID || f.Src != e.Src || f.Dst != e.Dst || f.Stage != e.Stage ||
				math.Float64bits(float64(f.Size)) != math.Float64bits(float64(e.Size)) {
				return fmt.Errorf("group %s flow %d: %+v, want %+v", g.ID, k, *f, *e)
			}
		}
	}
	return nil
}

// A plan compiled on slot hosts and instantiated on a placement is the
// compilation on that placement: same groups in the same order, same flows,
// same bits. Its volume is the sum the submit-time dry compile took, and it
// refuses the placements Build refuses.
func TestPlanMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	pool := make([]string, 40)
	for i := range pool {
		pool[i] = fmt.Sprintf("host-%02d", i)
	}
	specs := planSpecs()
	for _, spec := range specs {
		plan, err := queue.Compile(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		j, err := queue.New(queue.Options{}).Submit("a", spec, plan, 0)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		need := queue.HostsNeeded(spec)
		for trial := 0; trial < 3; trial++ {
			hosts := make([]string, need)
			for i, k := range rng.Perm(len(pool))[:need] {
				hosts[i] = pool[k]
			}
			w, err := queue.Build(spec, hosts)
			if err != nil {
				t.Fatalf("%s on %v: %v", spec.ID, hosts, err)
			}
			want, err := queue.Groups(w, spec.Weight)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			got, err := plan.Groups(hosts, spec.Weight)
			if err != nil {
				t.Fatalf("%s on %v: %v", spec.ID, hosts, err)
			}
			if err := sameGroups(got, want); err != nil {
				t.Fatalf("%s on %v: %v", spec.ID, hosts, err)
			}
			if !reflect.DeepEqual(plan.GroupIDs(), groupIDs(want)) {
				t.Fatalf("%s: GroupIDs %v, want %v", spec.ID, plan.GroupIDs(), groupIDs(want))
			}
			var bytes unit.Bytes
			for _, n := range w.Graph.Nodes() {
				if n.Kind == dag.Comm {
					bytes += n.Size
				}
			}
			if math.Float64bits(float64(j.Bytes)) != math.Float64bits(float64(bytes)) {
				t.Fatalf("%s: Bytes %v, want %v", spec.ID, j.Bytes, bytes)
			}
		}

		// Short, duplicate and empty placements.
		hosts := pool[:need]
		bad := [][]string{
			hosts[:need-1],
			append(append([]string(nil), hosts[:need-1]...), hosts[0]),
			append(append([]string(nil), hosts[:need-1]...), ""),
		}
		for _, b := range bad {
			_, buildErr := queue.Build(spec, b)
			_, planErr := plan.Groups(b, spec.Weight)
			if buildErr == nil || planErr == nil {
				t.Fatalf("%s on %q: Build error %v, plan error %v; both must refuse", spec.ID, b, buildErr, planErr)
			}
		}
	}
	if len(specs) < 72+150 { // two thirds of generated scenarios carry jobs
		t.Fatalf("only %d specs checked", len(specs))
	}
}

// Compile refuses an invalid spec with an error, whatever its shape: it runs
// on raw submissions, before Submit validates them.
func TestCompileRefusesInvalidSpecs(t *testing.T) {
	ok := wire.JobSpec{ID: "j", Paradigm: "dp", Workers: 2, Layers: 2, Params: 1e6, Fwd: 0.1, Bwd: 0.1, Iterations: 1}
	for _, mut := range []func(*wire.JobSpec){
		func(s *wire.JobSpec) { s.Workers = -2 },
		func(s *wire.JobSpec) { s.Workers, s.Paradigm = -2, "ps" },
		func(s *wire.JobSpec) { s.Workers, s.Paradigm = -1, "ps" },
		func(s *wire.JobSpec) { s.Workers = 0 },
		func(s *wire.JobSpec) { s.ID = "" },
		func(s *wire.JobSpec) { s.Paradigm = "nope" },
		func(s *wire.JobSpec) { s.Paradigm, s.Workers, s.Layers = "pp", 3, 2 },
	} {
		spec := ok
		mut(&spec)
		if _, err := queue.Compile(spec); err == nil {
			t.Errorf("%+v compiled", spec)
		}
		var rej *queue.RejectError
		if _, err := queue.New(queue.Options{}).Submit("a", spec, nil, 0); !errors.As(err, &rej) || rej.Code != wire.ErrCodeBadJob {
			t.Errorf("%+v: Submit error %v, want a bad_job RejectError", spec, err)
		}
	}
}

// Submit queues what the spec compiles to even when handed a plan compiled
// from another spec with the same ID.
func TestSubmitIgnoresAnotherSpecsPlan(t *testing.T) {
	a := wire.JobSpec{ID: "j", Paradigm: "dp", Workers: 2, Layers: 2, Params: 1e6, Fwd: 0.1, Bwd: 0.1, Iterations: 1}
	b := a
	b.Paradigm, b.Workers = "ps", 3
	planA, err := queue.Compile(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := queue.New(queue.Options{}).Submit("a", b, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := queue.New(queue.Options{}).Submit("a", b, planA, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bytes != want.Bytes {
		t.Fatalf("queued with %v bytes, spec compiles to %v", got.Bytes, want.Bytes)
	}
	hosts := []string{"h0", "h1", "h2", "h3"}
	wantGroups, err := (&queue.Admitted{Job: want, Hosts: hosts}).Groups()
	if err != nil {
		t.Fatal(err)
	}
	gotGroups, err := (&queue.Admitted{Job: got, Hosts: hosts}).Groups()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGroups(gotGroups, wantGroups); err != nil {
		t.Fatal(err)
	}
}

func groupIDs(gs []*core.EchelonFlow) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.ID
	}
	return out
}
