package coordinator

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/wire"
)

// queueCoordinator builds a coordinator with the job pipeline enabled on a
// four-host fabric.
func queueCoordinator(t *testing.T, clk *clock.Manual, qopts queue.Options, mod func(*Options)) *Coordinator {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3", "w4")
	opts := Options{
		Net:       net,
		Scheduler: sched.EchelonMADD{Backfill: true},
		Queue:     queue.New(qopts),
		Clock:     clk,
		Logf:      t.Logf,
	}
	if mod != nil {
		mod(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func submitSpec(id string, workers int) wire.JobSpec {
	return wire.JobSpec{ID: id, Tenant: "t0", Paradigm: "dp", Workers: workers,
		Layers: 2, Params: 4, Fwd: 0.1, Bwd: 0.1, Buckets: 1, Iterations: 1, Declared: 1}
}

// jobGroupIDs names the groups a job registers when it is admitted.
func jobGroupIDs(t testing.TB, spec wire.JobSpec) []string {
	t.Helper()
	plan, err := queue.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan.GroupIDs()
}

// driveJob releases and finishes every comm flow of an admitted job, exactly
// as its agent would, using the deterministic compilation on the admitted
// placement.
func driveJob(t *testing.T, c *Coordinator, clk *clock.Manual, spec wire.JobSpec, hosts []string) {
	t.Helper()
	w, err := queue.Build(spec, hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range w.Graph.Nodes() {
		if n.Kind != dag.Comm {
			continue
		}
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		if _, err := c.FlowEvent(wire.FlowEvent{GroupID: gid, FlowID: n.ID, Event: wire.EventReleased}); err != nil {
			t.Fatalf("release %s: %v", n.ID, err)
		}
		clk.Advance(10 * time.Millisecond)
		if _, err := c.FlowEvent(wire.FlowEvent{GroupID: gid, FlowID: n.ID, Event: wire.EventFinished}); err != nil {
			t.Fatalf("finish %s: %v", n.ID, err)
		}
	}
}

func TestJobPipelineLifecycle(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	reg := telemetry.NewRegistry()
	c := queueCoordinator(t, clk, queue.Options{}, func(o *Options) { o.Metrics = reg })
	spec := submitSpec("j0", 2)
	if err := c.SubmitJob("a1", spec); err != nil {
		t.Fatal(err)
	}
	status, hosts, ok := c.JobStatus("j0")
	if !ok || status != wire.JobAdmitted || len(hosts) != 2 {
		t.Fatalf("after submit: status=%s hosts=%v ok=%v", status, hosts, ok)
	}
	if pending, running := c.QueueDepth(); pending != 0 || running != 1 {
		t.Fatalf("depth=%d running=%d", pending, running)
	}
	// The job's compiled groups are registered under the submitter.
	gids := jobGroupIDs(t, spec)
	for _, gid := range gids {
		if _, ok := c.groups[gid]; !ok {
			t.Fatalf("admitted group %s not registered", gid)
		}
	}
	driveJob(t, c, clk, spec, hosts)
	if _, _, ok := c.JobStatus("j0"); ok {
		t.Error("job still known after its last flow finished")
	}
	if pending, running := c.QueueDepth(); pending != 0 || running != 0 {
		t.Errorf("after departure: depth=%d running=%d", pending, running)
	}
	for _, gid := range gids {
		if _, ok := c.groups[gid]; ok {
			t.Errorf("group %s survived job departure", gid)
		}
	}
}

func TestJobAdmissionBudget(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := queueCoordinator(t, clk, queue.Options{MaxJobs: 1}, nil)
	if err := c.SubmitJob("a1", submitSpec("j0", 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitJob("a1", submitSpec("j1", 2)); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := c.JobStatus("j1"); status != wire.JobQueued {
		t.Fatalf("second job status = %s, want queued behind MaxJobs", status)
	}
	_, hosts, _ := c.JobStatus("j0")
	driveJob(t, c, clk, submitSpec("j0", 2), hosts)
	// j0's departure freed the slot; j1 admits in the same locked pass.
	if status, _, _ := c.JobStatus("j1"); status != wire.JobAdmitted {
		t.Fatalf("queued job not admitted after departure: %s", status)
	}
}

func TestSubmitJobErrors(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))

	// No queue configured.
	plain := newTestCoordinator(t, clk)
	if err := plain.SubmitJob("a1", submitSpec("j0", 2)); err == nil {
		t.Error("queueless coordinator accepted a job")
	}

	c := queueCoordinator(t, clk, queue.Options{MaxQueued: 1, MaxJobs: 1}, func(o *Options) {
		o.SubmitRate = 1e-9 // first token only; effectively never refills
		o.SubmitBurst = 1
	})
	if err := c.SubmitJob("a1", submitSpec("j0", 2)); err != nil {
		t.Fatal(err)
	}
	err := c.SubmitJob("a1", submitSpec("j1", 2))
	if !errors.Is(err, ErrThrottled) || submitErrCode(err) != wire.ErrCodeThrottled {
		t.Errorf("throttle: err=%v code=%q", err, submitErrCode(err))
	}

	// Unthrottled tenant hits queue-full (j0 admitted, MaxQueued=1).
	full := queueCoordinator(t, clk, queue.Options{MaxQueued: 1, MaxJobs: 1}, nil)
	if err := full.SubmitJob("a1", submitSpec("j0", 2)); err != nil {
		t.Fatal(err)
	}
	if err := full.SubmitJob("a1", submitSpec("j1", 2)); err != nil {
		t.Fatal(err)
	}
	err = full.SubmitJob("a1", submitSpec("j2", 2))
	if !errors.Is(err, queue.ErrQueueFull) || submitErrCode(err) != wire.ErrCodeQueueFull {
		t.Errorf("queue full: err=%v code=%q", err, submitErrCode(err))
	}

	// Invalid specs reject with a typed bad_job error.
	fresh := queueCoordinator(t, clk, queue.Options{}, nil)
	bad := submitSpec("", 2)
	err = fresh.SubmitJob("a1", bad)
	var rej *queue.RejectError
	if !errors.As(err, &rej) || submitErrCode(err) != wire.ErrCodeBadJob {
		t.Errorf("bad spec: err=%v code=%q", err, submitErrCode(err))
	}
	// A negative worker count is refused before anything sizes a placement
	// by it, and the coordinator keeps serving.
	for _, p := range []string{"dp", "ps"} {
		neg := submitSpec("neg-"+p, -2)
		neg.Paradigm = p
		err = fresh.SubmitJob("a1", neg)
		if !errors.As(err, &rej) || submitErrCode(err) != wire.ErrCodeBadJob {
			t.Errorf("%s with -2 workers: err=%v code=%q", p, err, submitErrCode(err))
		}
	}
	if err := fresh.SubmitJob("a1", submitSpec("after", 2)); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := fresh.JobStatus("after"); status != wire.JobAdmitted {
		t.Errorf("job after refusals: %s", status)
	}
}

func TestJobUnplaceableRejectedAtAdmission(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := queueCoordinator(t, clk, queue.Options{}, nil)
	// Five workers on a four-host fabric: compiles fine, places never.
	if err := c.SubmitJob("a1", submitSpec("wide", 5)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.JobStatus("wide"); ok {
		t.Error("unplaceable job retained")
	}
	// The queue keeps serving jobs behind the reject.
	if err := c.SubmitJob("a1", submitSpec("ok", 2)); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := c.JobStatus("ok"); status != wire.JobAdmitted {
		t.Errorf("job behind reject: %s", status)
	}
}

// jobRestoreOpts builds journaled options with a fresh queue per incarnation
// (the queue, like the fabric, is config — Restore rebuilds its state).
func jobRestoreOpts(t *testing.T, clk *clock.Manual, snapEvery int) Options {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3", "w4")
	return Options{
		Net:               net,
		Scheduler:         sched.EchelonMADD{Backfill: true},
		Queue:             queue.New(queue.Options{MaxJobs: 1}),
		QuarantineTimeout: time.Hour,
		SnapshotEvery:     snapEvery,
		Clock:             clk,
		Logf:              t.Logf,
	}
}

// Crash-and-restore recovers the queue bit-for-bit: admitted placements,
// pending order, estimates and sequence numbers all survive, via WAL replay
// and via snapshot compaction alike.
func TestJobCrashRestoreBitForBit(t *testing.T) {
	for _, snapEvery := range []int{0, 3} {
		dir := t.TempDir()
		clk := clock.NewManual(time.Unix(1000, 0))
		c, err := Restore(jobRestoreOpts(t, clk, snapEvery), dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SubmitJob("a1", submitSpec("j0", 2)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if err := c.SubmitJob("a1", submitSpec("j1", 3)); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Second)
		if err := c.SubmitJob("a2", submitSpec("j2", 2)); err != nil {
			t.Fatal(err)
		}
		// Partially run the admitted job so flow state is mid-flight.
		_, hosts, _ := c.JobStatus("j0")
		w, err := queue.Build(submitSpec("j0", 2), hosts)
		if err != nil {
			t.Fatal(err)
		}
		released := 0
		for _, n := range w.Graph.Nodes() {
			if n.Kind != dag.Comm || released >= 2 {
				continue
			}
			gid := n.Group
			if gid == "" {
				gid = "flow:" + n.ID
			}
			if _, err := c.FlowEvent(wire.FlowEvent{GroupID: gid, FlowID: n.ID, Event: wire.EventReleased}); err != nil {
				t.Fatal(err)
			}
			released++
		}
		wantPending := c.queue.Pending()
		wantAdmitted := c.queue.AdmittedList()
		wantSeq := c.queue.Seq()
		wantTard := c.TotalTardiness()
		c.Close() // crash: every append was fsynced

		c2, err := Restore(jobRestoreOpts(t, clk, snapEvery), dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		gotPending := c2.queue.Pending()
		gotAdmitted := c2.queue.AdmittedList()
		if len(gotPending) != len(wantPending) || c2.queue.Seq() != wantSeq {
			t.Fatalf("snapEvery=%d: restored %d pending seq %d, want %d/%d",
				snapEvery, len(gotPending), c2.queue.Seq(), len(wantPending), wantSeq)
		}
		for i, want := range wantPending {
			got := gotPending[i]
			if got.Spec != want.Spec || got.Seq != want.Seq || got.Arrival != want.Arrival ||
				got.Est != want.Est || got.Bytes != want.Bytes || got.Demand != want.Demand {
				t.Errorf("snapEvery=%d: pending[%d] = %+v, want %+v", snapEvery, i, got, want)
			}
		}
		if len(gotAdmitted) != len(wantAdmitted) {
			t.Fatalf("snapEvery=%d: restored %d admitted, want %d", snapEvery, len(gotAdmitted), len(wantAdmitted))
		}
		for i, want := range wantAdmitted {
			got := gotAdmitted[i]
			if !reflect.DeepEqual(got.Hosts, want.Hosts) || got.AdmittedAt != want.AdmittedAt ||
				got.Job.Spec != want.Job.Spec {
				t.Errorf("snapEvery=%d: admitted[%d] = %+v, want %+v", snapEvery, i, got, want)
			}
		}
		if got := c2.TotalTardiness(); got != wantTard {
			t.Errorf("snapEvery=%d: tardiness %v, want %v", snapEvery, got, wantTard)
		}
		// The job→group index survived: finishing j0's flows after the
		// owner's rejoin departs the job and admits the next one.
		if c2.jobFlowsLeft["j0"] != c.jobFlowsLeft["j0"] {
			t.Errorf("snapEvery=%d: jobFlowsLeft = %d, want %d",
				snapEvery, c2.jobFlowsLeft["j0"], c.jobFlowsLeft["j0"])
		}
	}
}

// An owner-driven group unregister dissolves the job silently once its last
// group is gone, keeping queue occupancy aligned with registered state.
func TestJobDissolvesWhenGroupsUnregistered(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	c := queueCoordinator(t, clk, queue.Options{}, nil)
	spec := submitSpec("j0", 2)
	if err := c.SubmitJob("a1", spec); err != nil {
		t.Fatal(err)
	}
	for _, gid := range jobGroupIDs(t, spec) {
		if _, err := c.UnregisterGroup(gid); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.JobStatus("j0"); ok {
		t.Error("job survived losing every group")
	}
	if _, running := c.QueueDepth(); running != 0 {
		t.Errorf("running = %d", running)
	}
}
