package queue

import (
	"errors"
	"reflect"
	"testing"

	"echelonflow/internal/dag"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

func dpSpec(id string, workers int) wire.JobSpec {
	return wire.JobSpec{ID: id, Tenant: "t0", Paradigm: "dp", Workers: workers,
		Layers: 2, Params: 4, Fwd: 0.1, Bwd: 0.1, Iterations: 2, Declared: 1}
}

func TestHostsNeeded(t *testing.T) {
	if got := HostsNeeded(dpSpec("j", 3)); got != 3 {
		t.Errorf("dp HostsNeeded = %d", got)
	}
	ps := dpSpec("j", 3)
	ps.Paradigm = "ps"
	if got := HostsNeeded(ps); got != 4 {
		t.Errorf("ps HostsNeeded = %d, want workers+1", got)
	}
}

func TestBuildAllParadigms(t *testing.T) {
	for _, paradigm := range []string{"dp", "ps", "pp", "1f1b", "tp", "fsdp"} {
		s := dpSpec("job/"+paradigm, 2)
		s.Paradigm = paradigm
		s.Buckets = 1
		s.Micro = 2
		w, err := Build(s, slotHosts(HostsNeeded(s)))
		if err != nil {
			t.Errorf("%s: %v", paradigm, err)
			continue
		}
		comm := 0
		for _, n := range w.Graph.Nodes() {
			if n.Kind == dag.Comm {
				comm++
			}
		}
		if comm == 0 {
			t.Errorf("%s: built workload has no comm nodes", paradigm)
		}
		groups, err := Groups(w, 2)
		if err != nil {
			t.Errorf("%s: Groups: %v", paradigm, err)
			continue
		}
		for _, g := range groups {
			if g.Weight != 2 {
				t.Errorf("%s: group %s weight = %v", paradigm, g.ID, g.Weight)
			}
		}
		plan, err := Compile(s)
		if err != nil {
			t.Fatalf("%s: Compile: %v", paradigm, err)
		}
		ids := plan.GroupIDs()
		if len(ids) != len(groups) {
			t.Errorf("%s: GroupIDs returned %d names, Groups built %d", paradigm, len(ids), len(groups))
		}
		for i, g := range groups {
			if ids[i] != g.ID {
				t.Errorf("%s: GroupIDs[%d] = %s, group ID %s", paradigm, i, ids[i], g.ID)
			}
		}
	}
}

func TestBuildRejectsBadPlacement(t *testing.T) {
	if _, err := Build(dpSpec("j", 3), []string{"a", "b"}); err == nil {
		t.Error("short placement accepted")
	}
	bad := dpSpec("j", 2)
	bad.Paradigm = "mystery"
	if _, err := Build(bad, []string{"a", "b"}); err == nil {
		t.Error("unknown paradigm accepted")
	}
}

func TestCompileVolume(t *testing.T) {
	// dp all-reduce over 2 workers: ring all-reduce moves a deterministic
	// multiple of the parameter volume; just require it to be positive and
	// stable across calls.
	p1, err := Compile(dpSpec("j", 2))
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := Compile(dpSpec("other", 2))
	if p1.bytes <= 0 || p1.bytes != p2.bytes {
		t.Errorf("compiled volumes = %v, %v", p1.bytes, p2.bytes)
	}
	// A pipeline with more workers than layers cannot compile: Submit must
	// catch it before the job holds a queue slot.
	pp := dpSpec("j", 4)
	pp.Paradigm = "pp"
	pp.Micro = 2
	pp.Layers = 2
	if _, err := Compile(pp); err == nil {
		t.Error("uncompilable pipeline compiled")
	}
	var rej *RejectError
	if _, err := New(Options{}).Submit("a", pp, nil, 0); !errors.As(err, &rej) || rej.Code != wire.ErrCodeBadJob {
		t.Errorf("uncompilable pipeline submitted: %v", err)
	}
}

func TestSubmitValidatesAndOrders(t *testing.T) {
	q := New(Options{})
	j, err := q.Submit("agent0", dpSpec("j0", 2), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if j.Arrival != 5 || j.Seq != 0 || j.Owner != "agent0" || j.Bytes <= 0 {
		t.Errorf("queued job = %+v", j)
	}
	// Declared=1, 2 iterations → demand = bytes / 2.
	if want := unit.Rate(float64(j.Bytes) / 2); j.Demand != want {
		t.Errorf("demand = %v, want %v", j.Demand, want)
	}
	var rej *RejectError
	if _, err := q.Submit("agent0", dpSpec("j0", 2), nil, 6); !errors.As(err, &rej) {
		t.Errorf("duplicate id: %v", err)
	}
	bad := dpSpec("", 2)
	if _, err := q.Submit("agent0", bad, nil, 6); !errors.As(err, &rej) || rej.Code != wire.ErrCodeBadJob {
		t.Errorf("invalid spec: %v", err)
	}
	if q.Depth() != 1 {
		t.Errorf("depth = %d after rejects", q.Depth())
	}
}

func TestSubmitQueueFull(t *testing.T) {
	q := New(Options{MaxQueued: 1})
	if _, err := q.Submit("a", dpSpec("j0", 2), nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("a", dpSpec("j1", 2), nil, 0); !errors.Is(err, ErrQueueFull) {
		t.Errorf("want ErrQueueFull, got %v", err)
	}
}

func TestNextAdmitsFIFO(t *testing.T) {
	q := New(Options{})
	v := NewView(testNet(t))
	for _, id := range []string{"j0", "j1"} {
		if _, err := q.Submit("a", dpSpec(id, 2), nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	a, err := q.Next(v, 1)
	if err != nil || a == nil || a.Job.Spec.ID != "j0" {
		t.Fatalf("first admission = %+v, %v", a, err)
	}
	if a.AdmittedAt != 1 || len(a.Hosts) != 2 {
		t.Errorf("admission record = %+v", a)
	}
	b, err := q.Next(v, 2)
	if err != nil || b == nil || b.Job.Spec.ID != "j1" {
		t.Fatalf("second admission = %+v, %v", b, err)
	}
	if c, err := q.Next(v, 3); c != nil || err != nil {
		t.Errorf("empty queue returned %+v, %v", c, err)
	}
	if q.Depth() != 0 || q.Running() != 2 {
		t.Errorf("depth=%d running=%d", q.Depth(), q.Running())
	}
}

func TestNextSRPTOrdersByPredictedWork(t *testing.T) {
	q := New(Options{Order: SRPT{}})
	v := NewView(testNet(t))
	long := dpSpec("long", 2)
	long.Declared = 10
	short := dpSpec("short", 2)
	short.Declared = 1
	q.Submit("a", long, nil, 0)
	q.Submit("a", short, nil, 0)
	a, err := q.Next(v, 1)
	if err != nil || a == nil || a.Job.Spec.ID != "short" {
		t.Fatalf("SRPT admitted %+v, %v", a, err)
	}
}

func TestNextMaxJobsBudget(t *testing.T) {
	q := New(Options{MaxJobs: 1})
	v := NewView(testNet(t))
	q.Submit("a", dpSpec("j0", 2), nil, 0)
	q.Submit("a", dpSpec("j1", 2), nil, 0)
	if a, _ := q.Next(v, 1); a == nil {
		t.Fatal("first job blocked")
	}
	if a, err := q.Next(v, 1); a != nil || err != nil {
		t.Fatalf("budget overshot: %+v, %v", a, err)
	}
	if !q.Depart("j0") {
		t.Fatal("depart j0")
	}
	if a, _ := q.Next(v, 2); a == nil || a.Job.Spec.ID != "j1" {
		t.Fatal("departure did not unblock admission")
	}
}

func TestNextBandwidthBudget(t *testing.T) {
	// Fabric capacity 40 (4 hosts × 10); MaxShare 0.5 → budget 20.
	q := New(Options{MaxShare: 0.5})
	v := NewView(testNet(t))
	big := dpSpec("big", 2)
	big.Params = 100 // large volume over declared 1s × 2 iters
	q.Submit("a", big, nil, 0)
	q.Submit("a", big, nil, 0) // duplicate rejected, ignore
	second := dpSpec("second", 2)
	second.Params = 100
	q.Submit("a", second, nil, 0)
	a, _ := q.Next(v, 1)
	if a == nil {
		t.Fatal("an empty admitted set must never block on the bandwidth budget")
	}
	if q.Demand() <= 20 {
		t.Fatalf("test premise broken: demand %v should exceed budget alone", q.Demand())
	}
	if b, err := q.Next(v, 1); b != nil || err != nil {
		t.Fatalf("bandwidth budget overshot: %+v, %v", b, err)
	}
	q.Depart("big")
	if q.Demand() != 0 {
		t.Errorf("demand after last departure = %v", q.Demand())
	}
	if b, _ := q.Next(v, 2); b == nil {
		t.Fatal("departure did not unblock")
	}
}

func TestNextRejectsUnplaceable(t *testing.T) {
	q := New(Options{})
	v := NewView(testNet(t)) // 4 hosts
	q.Submit("a", dpSpec("wide", 4), nil, 0)
	wide := q.Job("wide")
	wide.Spec.Workers = 5 // grew beyond the fabric after submit-time checks
	q.Submit("a", dpSpec("ok", 2), nil, 0)
	a, err := q.Next(v, 1)
	var rej *RejectError
	if a != nil || !errors.As(err, &rej) || rej.JobID != "wide" {
		t.Fatalf("Next = %+v, %v", a, err)
	}
	// The reject freed the head; the job behind it admits.
	b, err := q.Next(v, 1)
	if err != nil || b == nil || b.Job.Spec.ID != "ok" {
		t.Fatalf("after reject: %+v, %v", b, err)
	}
}

func TestForceAdmitAndRestore(t *testing.T) {
	q := New(Options{})
	q.Submit("a", dpSpec("j0", 2), nil, 0)
	q.Submit("a", dpSpec("j1", 2), nil, 1)
	a, err := q.ForceAdmit("j0", []string{"c", "d"}, 3)
	if err != nil || !reflect.DeepEqual(a.Hosts, []string{"c", "d"}) || a.AdmittedAt != 3 {
		t.Fatalf("ForceAdmit = %+v, %v", a, err)
	}
	if _, err := q.ForceAdmit("ghost", nil, 3); err == nil {
		t.Error("ForceAdmit of unknown job accepted")
	}

	// Snapshot and restore into a fresh queue: same pending, admitted, seq.
	pending, admitted, seq := q.Pending(), q.AdmittedList(), q.Seq()
	q2 := New(Options{})
	q2.Restore(pending, admitted, seq)
	if q2.Depth() != 1 || q2.Running() != 1 || q2.Seq() != 2 {
		t.Fatalf("restored depth=%d running=%d seq=%d", q2.Depth(), q2.Running(), q2.Seq())
	}
	if q2.Demand() != q.Demand() {
		t.Errorf("restored demand %v != %v", q2.Demand(), q.Demand())
	}
	got := q2.AdmittedJob("j0")
	if got == nil || !reflect.DeepEqual(got.Hosts, a.Hosts) || got.AdmittedAt != 3 {
		t.Errorf("restored admission = %+v", got)
	}
	// Sequence numbering continues without collision.
	j, err := q2.Submit("a", dpSpec("j2", 2), nil, 5)
	if err != nil || j.Seq != 2 {
		t.Fatalf("post-restore submit = %+v, %v", j, err)
	}
}

func TestDepartPendingJob(t *testing.T) {
	q := New(Options{})
	q.Submit("a", dpSpec("j0", 2), nil, 0)
	if !q.Depart("j0") {
		t.Fatal("pending job not departable")
	}
	if q.Depart("j0") {
		t.Error("double departure reported found")
	}
	if q.Depth() != 0 {
		t.Errorf("depth = %d", q.Depth())
	}
}

func TestPolicyNames(t *testing.T) {
	q := New(Options{Placer: Pack{}, Order: SRPT{}})
	p, o := q.Policy()
	if p != "pack" || o != "srpt" {
		t.Errorf("Policy = %s, %s", p, o)
	}
	q = New(Options{})
	p, o = q.Policy()
	if p != "spread" || o != "fifo" {
		t.Errorf("default Policy = %s, %s", p, o)
	}
}
