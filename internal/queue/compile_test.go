package queue

import (
	"fmt"
	"reflect"
	"testing"

	"echelonflow/internal/wire"
)

// deck is the live-durable benchmark's 36-card job deck (six paradigms x
// {2, 3} workers x three shape variants) at fixed volumes.
func deck() []wire.JobSpec {
	var out []wire.JobSpec
	for _, p := range []string{"dp", "ps", "pp", "1f1b", "tp", "fsdp"} {
		for _, w := range []int{2, 3} {
			for v := 0; v < 3; v++ {
				j := wire.JobSpec{ID: fmt.Sprintf("d%d", len(out)), Tenant: "t0", Paradigm: p, Workers: w,
					Layers: 2 + v, Params: 2e9, Acts: 2e9, Fwd: 0.1, Bwd: 0.1, Iterations: 1 + v%2}
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
	return out
}

// A job is compiled once per coordinator. Submit compiles it; admission
// instantiates the plan on the placement and releases it without compiling.
// A restored coordinator compiles each job once: an admitted job to rebuild
// its job→group index, a pending one when it is admitted.
func TestCompiledOncePerJob(t *testing.T) {
	specs := deck()
	half := len(specs) / 2
	q := New(Options{MaxJobs: half})
	v := NewView(testNet(t))
	builds0 := builds.Load()
	for _, s := range specs {
		if _, err := q.Submit("a", s, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := builds.Load() - builds0; got != int64(len(specs)) {
		t.Fatalf("submit compiled %d times for %d jobs", got, len(specs))
	}

	builds0 = builds.Load()
	groups := make(map[string][]string)
	for {
		a, err := q.Next(v, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			break
		}
		gs, err := a.Groups()
		if err != nil {
			t.Fatal(err)
		}
		if a.Job.plan != nil {
			t.Fatalf("job %s kept its plan after admission", a.Job.Spec.ID)
		}
		for _, g := range gs {
			groups[a.Job.Spec.ID] = append(groups[a.Job.Spec.ID], g.ID)
		}
	}
	if q.Running() != half || q.Depth() != len(specs)-half {
		t.Fatalf("running %d, pending %d", q.Running(), q.Depth())
	}
	if got := builds.Load() - builds0; got != 0 {
		t.Fatalf("admission and instantiation compiled %d times, want 0", got)
	}

	// Snapshot and restore: the recorded jobs carry no plan.
	strip := func(j *Job) *Job { cp := *j; cp.plan = nil; return &cp }
	var pending []*Job
	for _, j := range q.Pending() {
		pending = append(pending, strip(j))
	}
	var admitted []*Admitted
	for _, a := range q.AdmittedList() {
		admitted = append(admitted, &Admitted{Job: strip(a.Job), Hosts: a.Hosts, AdmittedAt: a.AdmittedAt})
	}
	q2 := New(Options{MaxJobs: half})
	q2.Restore(pending, admitted, q.Seq())
	builds0 = builds.Load()
	for _, a := range q2.AdmittedList() {
		plan, err := Compile(a.Job.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if id := a.Job.Spec.ID; !reflect.DeepEqual(plan.GroupIDs(), groups[id]) {
			t.Fatalf("restored index of %s = %v, admission registered %v", id, plan.GroupIDs(), groups[id])
		}
		q2.Depart(a.Job.Spec.ID)
	}
	for {
		a, err := q2.Next(v, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a == nil {
			break
		}
		if _, err := a.Groups(); err != nil {
			t.Fatal(err)
		}
	}
	if q2.Depth() != 0 {
		t.Fatalf("restored queue left %d pending", q2.Depth())
	}
	if got := builds.Load() - builds0; got != int64(len(specs)) {
		t.Fatalf("restore index and restored admissions compiled %d times for %d jobs", got, len(specs))
	}
}

// Compiling a job costs a few allocations per job, not several per node: a
// deck job has about 45 nodes, 70 edges and 27 flows. Build is what a tenant
// runs, Compile what Submit runs, and admission instantiates the plan.
func TestCompileAllocs(t *testing.T) {
	specs := deck()
	hosts := []string{"h0", "h1", "h2", "h3"}
	plans := make([]*Plan, len(specs))
	for i, s := range specs {
		var err error
		if plans[i], err = Compile(s); err != nil {
			t.Fatal(err)
		}
	}
	perJob := func(f func(i int, s wire.JobSpec) error) float64 {
		return testing.AllocsPerRun(5, func() {
			for i, s := range specs {
				if err := f(i, s); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(specs))
	}
	for _, c := range []struct {
		name  string
		bound float64
		f     func(i int, s wire.JobSpec) error
	}{
		{"build", 150, func(_ int, s wire.JobSpec) error { _, err := Build(s, hosts[:HostsNeeded(s)]); return err }},
		{"submit", 200, func(_ int, s wire.JobSpec) error { _, err := Compile(s); return err }},
		{"admit", 8, func(i int, s wire.JobSpec) error {
			_, err := plans[i].Groups(hosts[:HostsNeeded(s)], s.Weight)
			return err
		}},
	} {
		got := perJob(c.f)
		if got > c.bound {
			t.Errorf("%s allocates %.1f times per job, bound %.0f", c.name, got, c.bound)
		} else {
			t.Logf("%s allocates %.1f times per job, bound %.0f", c.name, got, c.bound)
		}
	}
}

// BenchmarkQueue_Compile is the per-job compile cost over the deck: build
// is queue.Build, as a tenant compiles its admitted job; submit is the
// compile Submit keeps (Compile); admit is what admission does with it (the
// plan instantiated on a placement). One op is one job.
func BenchmarkQueue_Compile(b *testing.B) {
	specs := deck()
	hosts := []string{"h0", "h1", "h2", "h3"}
	plans := make([]*Plan, len(specs))
	for i, s := range specs {
		var err error
		if plans[i], err = Compile(s); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := specs[i%len(specs)]
			if _, err := Build(s, hosts[:HostsNeeded(s)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("submit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(specs[i%len(specs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("admit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(specs)
			if _, err := plans[k].Groups(hosts[:HostsNeeded(specs[k])], specs[k].Weight); err != nil {
				b.Fatal(err)
			}
		}
	})
}
