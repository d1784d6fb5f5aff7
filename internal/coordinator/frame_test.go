package coordinator

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/journal"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// frameOpts is a delta-scheduled coordinator on n uniform hosts w1..wn.
func frameOpts(t testing.TB, clock func() time.Time, n int) Options {
	t.Helper()
	net := fabric.NewNetwork()
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("w%d", i+1)
	}
	net.AddUniformHosts(10, hosts...)
	return Options{
		Net:               net,
		Scheduler:         sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}),
		QuarantineTimeout: time.Hour,
		Clock:             clock,
		Logf:              t.Logf,
	}
}

// attachSession adds a connected agent whose writer never runs: pushes
// conflate in pendingAlloc and the session's sent map is the allocation the
// agent has been told.
func attachSession(c *Coordinator, agent string) *session {
	s := &session{agent: agent, sent: make(map[string]unit.Rate),
		out: make(chan wire.Message, 1024), quit: make(chan struct{})}
	c.mu.Lock()
	c.sessions[s] = struct{}{}
	c.byName[agent] = s
	c.mu.Unlock()
	return s
}

// ratesOf is the allocation in force: every active flow's rate. (A finished
// flow keeps whatever rate its last pass gave it; nothing reads it again.)
func ratesOf(c *Coordinator) map[string]unit.Rate {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.currentRatesLocked()
}

// walRecords reads a journal directory's tail: the records, and their kinds
// in order as one string.
func walRecords(t *testing.T, dir string) ([]journalEvent, string) {
	t.Helper()
	rec, err := journal.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var evs []journalEvent
	var kinds []string
	for _, raw := range rec.Tail {
		ev, err := decodeRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
		kinds = append(kinds, ev.Kind)
	}
	return evs, strings.Join(kinds, " ")
}

// randomScript builds a few groups over six hosts and a random interleaving
// of their flows' release and finish events (each flow released before it is
// finished), cut into frames of random length.
func randomScript(t *testing.T, rng *rand.Rand) ([]*core.EchelonFlow, [][]wire.FlowEvent) {
	t.Helper()
	var groups []*core.EchelonFlow
	var queues [][]wire.FlowEvent // per flow: release, finish
	for gi := 0; gi < 3+rng.Intn(4); gi++ {
		gid := fmt.Sprintf("g%d", gi)
		var flows []*core.Flow
		for fi := 0; fi < 2+rng.Intn(4); fi++ {
			src := 1 + rng.Intn(6)
			dst := 1 + (src+rng.Intn(5))%6
			f := &core.Flow{ID: fmt.Sprintf("%s.f%d", gid, fi), Src: fmt.Sprintf("w%d", src), Dst: fmt.Sprintf("w%d", dst),
				Size: unit.Bytes(50 + rng.Intn(400)), Stage: fi}
			flows = append(flows, f)
			queues = append(queues, []wire.FlowEvent{
				{GroupID: gid, FlowID: f.ID, Event: wire.EventReleased},
				{GroupID: gid, FlowID: f.ID, Event: wire.EventFinished}})
		}
		var g *core.EchelonFlow
		var err error
		if gi%2 == 0 {
			g, err = core.New(gid, core.Pipeline{T: unit.Time(1 + rng.Intn(3))}, flows...)
		} else {
			g, err = core.NewCoflow(gid, flows...)
		}
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	var script []wire.FlowEvent
	for len(queues) > 0 {
		i := rng.Intn(len(queues))
		script = append(script, queues[i][0])
		if queues[i] = queues[i][1:]; len(queues[i]) == 0 {
			queues = append(queues[:i], queues[i+1:]...)
		}
	}
	var frames [][]wire.FlowEvent
	for len(script) > 0 {
		n := min(1+rng.Intn(12), len(script))
		frames = append(frames, script[:n])
		script = script[n:]
	}
	return groups, frames
}

// (a) A frame of N events and the same N single events under a held clock
// end in the same state: rates, references, achieved tardiness, remaining
// volumes and the allocation a connected agent has been told. What differs
// is only how many passes it took: with no coalescing window a frame is one
// reschedule, N singles are N.
func TestFrameEqualsSinglesUnderHeldClock(t *testing.T) {
	modes := []struct {
		name     string
		coalesce time.Duration
		soft     bool
	}{
		{"immediate", 0, false},
		{"coalesced", time.Hour, false},
		{"soft-quarantined", 0, true},
	}
	for _, mode := range modes {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			groups, frames := randomScript(t, rng)
			build := func() (*Coordinator, *fakeClock, *session) {
				clk := &fakeClock{t: time.Unix(1000, 0)}
				opts := frameOpts(t, clk.now, 6)
				opts.Coalesce = mode.coalesce
				c, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range groups {
					if err := c.RegisterGroup("a1", g); err != nil {
						t.Fatal(err)
					}
				}
				return c, clk, attachSession(c, "a1")
			}
			framed, fclk, fs := build()
			single, sclk, ss := build()
			deferred := mode.coalesce > 0 || mode.soft
			for fi, frame := range frames {
				step := time.Duration(1+rng.Intn(900)) * time.Millisecond
				fclk.advance(step)
				sclk.advance(step)
				before := framed.Reschedules()
				if _, errs := framed.flowFrame(frame, mode.soft); len(errs) > 0 {
					t.Fatalf("%s seed %d frame %d: %v", mode.name, seed, fi, errs)
				}
				if got := framed.Reschedules() - before; !deferred && got != 1 {
					t.Fatalf("%s seed %d frame %d: %d reschedules for one frame, want 1", mode.name, seed, fi, got)
				}
				for _, ev := range frame {
					if _, err := single.flowEvent(ev, mode.soft); err != nil {
						t.Fatalf("%s seed %d frame %d: %v", mode.name, seed, fi, err)
					}
				}
				if deferred {
					// Both hold one open batch over the same groups; close it
					// the way the window timer would.
					for _, c := range []*Coordinator{framed, single} {
						if _, err := c.Drain(); err != nil {
							t.Fatal(err)
						}
					}
				}
				where := fmt.Sprintf("%s seed %d after frame %d/%d", mode.name, seed, fi+1, len(frames))
				if f, s := modelOf(framed), modelOf(single); !reflect.DeepEqual(f, s) {
					t.Fatalf("%s: model differs\nframe  %+v\nsingle %+v", where, f, s)
				}
				if f, s := ratesOf(framed), ratesOf(single); !reflect.DeepEqual(f, s) {
					t.Fatalf("%s: rates differ\nframe  %v\nsingle %v", where, f, s)
				}
				if !reflect.DeepEqual(fs.sent, ss.sent) {
					t.Fatalf("%s: pushed allocation differs\nframe  %v\nsingle %v", where, fs.sent, ss.sent)
				}
				if deferred {
					fc, fp := framed.PushStats()
					sc, sp := single.PushStats()
					if fc != sc || fp != sp {
						t.Fatalf("%s: push stats %d/%d vs %d/%d", where, fc, fp, sc, sp)
					}
				}
			}
			if f, s := framed.TotalTardiness(), single.TotalTardiness(); f != s {
				t.Errorf("%s seed %d: total tardiness %v vs %v", mode.name, seed, f, s)
			}
		}
	}
}

// (b) A refused event is reported on its own and does not stop the frame:
// the other events apply, and only they are journaled.
func TestFrameErrorIsolation(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c, err := Restore(frameOpts(t, clk.now, 3), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterGroup("a1", pipelineGroup(t)); err != nil {
		t.Fatal(err)
	}
	s := attachSession(c, "a1")
	clk.advance(time.Second)
	frame := []wire.FlowEvent{
		{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased},
		{GroupID: "nope", FlowID: "f0", Event: wire.EventReleased},   // unknown group
		{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}, // double release
		{GroupID: "job/pp", FlowID: "f1", Event: wire.EventFinished}, // finish before release
		{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased},
	}
	seq := c.journal.Seq()
	if err := c.handleMessage(s, wire.Message{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: frame}}); err != nil {
		t.Fatal(err)
	}
	var reported []string
	for len(s.out) > 0 {
		if m := <-s.out; m.Type == wire.TypeError {
			reported = append(reported, m.Error.Msg)
		}
	}
	wantErrs := []string{"unknown group", "released twice", "finished before release"}
	if len(reported) != len(wantErrs) {
		t.Fatalf("error frames = %q, want %d", reported, len(wantErrs))
	}
	for i, want := range wantErrs {
		if !strings.Contains(reported[i], want) {
			t.Errorf("error frame %d = %q, want it to mention %q", i, reported[i], want)
		}
	}
	for _, id := range []string{"f0", "f1"} {
		if f := c.groups["job/pp"].flows[id]; !f.released || f.finished || f.release != 1 {
			t.Errorf("flow %s after the frame: %+v", id, *f)
		}
	}
	if got := c.journal.Seq() - seq; got != 1 {
		t.Fatalf("frame appended %d records, want 1", got)
	}
	recs, _ := walRecords(t, dir)
	last := recs[len(recs)-1]
	if last.Kind != jFlow || last.At != 1 || last.Defer || !reflect.DeepEqual(last.Flows, []wire.FlowEvent{frame[0], frame[4]}) {
		t.Errorf("frame record = %+v, want the two applied events at t=1", last)
	}

	// A frame in which nothing applies leaves no record at all while the
	// model has not moved, and one empty record once it has (replay must
	// integrate to the instant the live model did).
	bad := []wire.FlowEvent{frame[1], frame[2]}
	seq = c.journal.Seq()
	if _, errs := c.flowFrame(bad, false); len(errs) != 2 || c.journal.Seq() != seq {
		t.Errorf("all-refused frame at a held clock: %d errors, %d records; want 2, 0", len(errs), c.journal.Seq()-seq)
	}
	clk.advance(time.Second)
	if _, err := c.FlowEvent(frame[1]); err == nil || c.journal.Seq() != seq+1 {
		t.Errorf("refused event after the clock moved: err %v, %d records; want an error and 1 record", err, c.journal.Seq()-seq)
	}
	want := modelOf(c)
	c.Close()
	c2, err := Restore(frameOpts(t, clk.now, 3), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	diffModels(t, want, modelOf(c2))
}

// jobFrameOpts is frameOpts with the job pipeline on four hosts, one job
// admitted at a time.
func jobFrameOpts(t testing.TB, clock func() time.Time) Options {
	opts := frameOpts(t, clock, 4)
	opts.Queue = queue.New(queue.Options{MaxJobs: 1})
	return opts
}

// (c) A frame whose k-th event completes a queue-admitted job: the events
// after it still apply at the frame's instant, the frame's record and
// reschedule decision come first, and only then does the job depart and its
// successor admit. Restore of that journal equals the live state bit for bit.
func TestFrameJobDepartsAfterFrame(t *testing.T) {
	for _, coalesce := range []time.Duration{0, time.Hour} {
		dir := t.TempDir()
		clk := &tickingClock{t: time.Unix(1000, 0)}
		opts := func() Options {
			o := jobFrameOpts(t, clk.now)
			o.Coalesce = coalesce
			return o
		}
		c, err := Restore(opts(), dir)
		if err != nil {
			t.Fatal(err)
		}
		extra, err := core.NewCoflow("extra", &core.Flow{ID: "x", Src: "w1", Dst: "w2", Size: 500})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterGroup("a2", extra); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"j0", "j1"} {
			if err := c.SubmitJob("a1", submitSpec(id, 2)); err != nil {
				t.Fatal(err)
			}
		}
		evs := jobEvents(t, c, "j0")
		if _, errs := c.flowFrame(evs[:3], false); len(errs) > 0 {
			t.Fatal(errs)
		}
		// j0's last finish sits mid-frame, followed by a release on another
		// group.
		frame := append(append([]wire.FlowEvent(nil), evs[3:]...),
			wire.FlowEvent{GroupID: "extra", FlowID: "x", Event: wire.EventReleased})
		_, before := walRecords(t, dir)
		if _, errs := c.flowFrame(frame, false); len(errs) > 0 {
			t.Fatal(errs)
		}
		if status, _, _ := c.JobStatus("j1"); status != wire.JobAdmitted {
			t.Fatalf("coalesce %v: j1 status %q after j0's last finish, want admitted", coalesce, status)
		}
		if _, _, ok := c.JobStatus("j0"); ok {
			t.Errorf("coalesce %v: j0 still held after its last finish", coalesce)
		}
		if !c.groups["extra"].flows["x"].released {
			t.Errorf("coalesce %v: the event after the completing finish was not applied", coalesce)
		}
		recs, kinds := walRecords(t, dir)
		wantTail := "flow job-departed job-admitted"
		if coalesce > 0 {
			wantTail = "flow resched job-departed job-admitted"
		}
		if got := strings.TrimPrefix(kinds, before+" "); got != wantTail {
			t.Errorf("coalesce %v: frame journaled %q, want %q", coalesce, got, wantTail)
		}
		n := len(strings.Fields(wantTail))
		if fr := recs[len(recs)-n]; !reflect.DeepEqual(fr.Flows, frame) || fr.Defer != (coalesce > 0) {
			t.Errorf("coalesce %v: frame record %+v does not carry the whole frame", coalesce, fr)
		}
		if dep := recs[len(recs)-2]; dep.JobID != "j0" || len(dep.Groups) == 0 || dep.At < recs[len(recs)-n].At {
			t.Errorf("coalesce %v: departure record %+v", coalesce, dep)
		}
		want := modelOf(c)
		c.Close()
		c2, err := Restore(opts(), dir)
		if err != nil {
			t.Fatal(err)
		}
		diffModels(t, want, modelOf(c2))
		c2.Close()
	}
}

// (d) Crash and restore with the compaction threshold crossed inside a
// frame, under per-append fsync and under group-commit, with and without a
// coalescing window. SnapshotEvery counts journaled flow events, so one
// 8-event frame crosses a threshold of 5 by itself; the snapshot is taken
// after the frame's reschedule, never between its record and that pass.
func TestFrameCrashRestoreAcrossCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	groups, _ := randomScript(t, rng)
	var script []wire.FlowEvent
	for _, g := range groups {
		for _, f := range g.Flows {
			script = append(script, wire.FlowEvent{GroupID: g.ID, FlowID: f.ID, Event: wire.EventReleased})
		}
	}
	for _, g := range groups {
		for _, f := range g.Flows[:len(g.Flows)/2] {
			script = append(script, wire.FlowEvent{GroupID: g.ID, FlowID: f.ID, Event: wire.EventFinished})
		}
	}
	const frameLen, snapEvery = 8, 5
	for _, groupCommit := range []time.Duration{0, time.Hour} {
		for _, coalesce := range []time.Duration{0, time.Hour} {
			for crashAfter := 1; crashAfter*frameLen <= len(script); crashAfter++ {
				dir := t.TempDir()
				clk := &tickingClock{t: time.Unix(1000, 0)}
				opts := func() Options {
					o := frameOpts(t, clk.now, 6)
					o.Logf = func(string, ...interface{}) {}
					o.SnapshotEvery, o.GroupCommit, o.Coalesce = snapEvery, groupCommit, coalesce
					return o
				}
				c, err := Restore(opts(), dir)
				if err != nil {
					t.Fatal(err)
				}
				// The crash abandons the coordinator; its descriptor is closed
				// only when the test ends.
				t.Cleanup(func() { c.Close() })
				for _, g := range groups {
					if err := c.RegisterGroup("a1", g); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < crashAfter; i++ {
					if _, errs := c.flowFrame(script[i*frameLen:(i+1)*frameLen], false); len(errs) > 0 {
						t.Fatal(errs)
					}
					if coalesce == 0 && c.journalEvents != 0 {
						t.Fatalf("frame %d of %d events left journalEvents at %d with SnapshotEvery %d: no compaction",
							i, frameLen, c.journalEvents, snapEvery)
					}
					if coalesce > 0 && i%2 == 1 {
						if _, err := c.Drain(); err != nil {
							t.Fatal(err)
						}
					}
				}
				want := modelOf(c)
				c2, err := Restore(opts(), dir)
				if err != nil {
					t.Fatal(err)
				}
				diffModels(t, want, modelOf(c2))
				if t.Failed() {
					t.Fatalf("group-commit %v, coalesce %v, crash after frame %d", groupCommit, coalesce, crashAfter)
				}
				c2.Close()
			}
		}
	}
}

// resumeFrame is a frame that can be applied any number of times: n resumed
// events over n released flows (a resume overwrites the remaining volume).
func resumeFrame(t testing.TB, c *Coordinator, n int) []wire.FlowEvent {
	t.Helper()
	var frame []wire.FlowEvent
	for i := 0; len(frame) < n; i++ {
		id := fmt.Sprintf("bench%d", i)
		if err := c.SubmitJob("a1", submitSpec(id, 2+i%2)); err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		admitted := c.queue.AdmittedJob(id) != nil
		c.mu.Unlock()
		if !admitted {
			t.Fatalf("job %s not admitted: too few hosts for a %d-event frame", id, n)
		}
		for _, ev := range jobEvents(t, c, id) {
			if ev.Event == wire.EventReleased && len(frame) < n {
				if _, err := c.FlowEvent(ev); err != nil {
					t.Fatal(err)
				}
				ev.Event = wire.EventResumed
				frame = append(frame, ev)
			}
		}
	}
	return frame
}

// frameFixture is a journaled coordinator (group-commit, 64 hosts, a few
// admitted jobs) with a repeatable frame of n events, driven through
// handleMessage like a session's worker would.
func frameFixture(t testing.TB, n int, coalesce time.Duration) (*Coordinator, *session, wire.Message) {
	t.Helper()
	opts := frameOpts(t, nil, 64)
	opts.Queue = queue.New(queue.Options{})
	opts.GroupCommit, opts.Coalesce = 5*time.Millisecond, coalesce
	opts.Logf = func(string, ...interface{}) {}
	c, err := Restore(opts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	s := attachSession(c, "a1")
	frame := resumeFrame(t, c, n)
	if n == 1 {
		return c, s, wire.Message{Type: wire.TypeFlowEvent, FlowEvent: &frame[0]}
	}
	return c, s, wire.Message{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: frame}}
}

// The deterministic gate behind BENCH_journal.json: a 32-event frame with no
// departure is one clock reading, one journal record and one reschedule
// decision, where 32 single events are 32 of each.
func TestFrameIsOneUnitOfWork(t *testing.T) {
	for _, coalesce := range []time.Duration{0, time.Hour} {
		clk := &tickingClock{t: time.Unix(1000, 0)}
		opts := frameOpts(t, clk.now, 16)
		opts.Queue = queue.New(queue.Options{})
		opts.GroupCommit, opts.Coalesce = time.Hour, coalesce
		dir := t.TempDir()
		c, err := Restore(opts, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s := attachSession(c, "a1")
		frame := resumeFrame(t, c, 32)
		if _, err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		seq, reads, passes := c.journal.Seq(), clk.reads, c.Reschedules()
		if err := c.handleMessage(s, wire.Message{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: frame}}); err != nil {
			t.Fatal(err)
		}
		wantPasses := 1
		if coalesce > 0 {
			wantPasses = 0
		}
		if got := c.journal.Seq() - seq; got != 1 {
			t.Errorf("coalesce %v: a 32-event frame appended %d records, want 1", coalesce, got)
		}
		if got := clk.reads - reads; got != 1 {
			t.Errorf("coalesce %v: a 32-event frame read the clock %d times, want 1", coalesce, got)
		}
		if got := c.Reschedules() - passes; got != wantPasses {
			t.Errorf("coalesce %v: a 32-event frame rescheduled %d times, want %d", coalesce, got, wantPasses)
		}
		if c.journalEvents < 32 {
			t.Errorf("coalesce %v: the frame counted %d toward SnapshotEvery, want its 32 events", coalesce, c.journalEvents)
		}
	}
}

// Allocation bounds per event with the reschedule deferred (so the pass's
// own allocations, which depend on the active set, stay out): the one-event
// frame costs one allocation (its event), and a 32-event frame none at all —
// the record is encoded into the coordinator's reused buffer and framed in
// the journal's, so a per-record allocation (a json.Marshal, a fresh frame
// buffer) fails this.
func TestFrameAllocationsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		events int
		bound  float64
	}{{1, 1}, {32, 0}} {
		c, s, msg := frameFixture(t, tc.events, time.Hour)
		if err := c.handleMessage(s, msg); err != nil { // opens the batch, arms its timer
			t.Fatal(err)
		}
		per := testing.AllocsPerRun(200, func() {
			if err := c.handleMessage(s, msg); err != nil {
				t.Fatal(err)
			}
		}) / float64(tc.events)
		t.Logf("%d-event frame: %.2f allocs/event", tc.events, per)
		if per > tc.bound {
			t.Errorf("%d-event frame: %.2f allocs/event, bound %v", tc.events, per, tc.bound)
		}
	}
}

func benchmarkFlowFrame(b *testing.B, events int) {
	c, s, msg := frameFixture(b, events, 2*time.Millisecond)
	seq := c.journal.Seq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.handleMessage(s, msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(c.journal.Seq()-seq)/float64(b.N*events), "records/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkCoordinator_FlowFrame1 and 32 are the in-process cost of one
// frame on live-durable's configuration (BENCH_journal.json): journal with
// 5 ms group-commit, 2 ms coalescing, 64 hosts, a few admitted jobs.
func BenchmarkCoordinator_FlowFrame1(b *testing.B)  { benchmarkFlowFrame(b, 1) }
func BenchmarkCoordinator_FlowFrame32(b *testing.B) { benchmarkFlowFrame(b, 32) }

// lifecycleDeck is the live-durable job deck (six paradigms x {2, 3} workers
// x three shape variants) and, per job, its flow events as frames of at most
// 32: every release, then every finish. Flow and group IDs carry no host
// name, so the frames fit any placement, and a departed job's ID is free to
// submit again.
func lifecycleDeck(t testing.TB) ([]wire.JobSpec, [][][]wire.FlowEvent) {
	t.Helper()
	var specs []wire.JobSpec
	var frames [][][]wire.FlowEvent
	for _, p := range []string{"dp", "ps", "pp", "1f1b", "tp", "fsdp"} {
		for _, w := range []int{2, 3} {
			for v := 0; v < 3; v++ {
				s := wire.JobSpec{ID: fmt.Sprintf("d%d", len(specs)), Tenant: "t0", Paradigm: p, Workers: w,
					Layers: max(2+v, w), Params: 2e9, Acts: 2e9, Fwd: 0.1, Bwd: 0.1, Iterations: 1 + v%2,
					Buckets: v, Micro: 2 + v, Prefetch: v, AggTime: 0.05, UpdateTime: 0.05}
				plan, err := queue.Compile(s)
				if err != nil {
					t.Fatal(err)
				}
				hosts := make([]string, queue.HostsNeeded(s))
				for i := range hosts {
					hosts[i] = fmt.Sprintf("w%d", i+1)
				}
				groups, err := plan.Groups(hosts, 0)
				if err != nil {
					t.Fatal(err)
				}
				var evs []wire.FlowEvent
				for _, kind := range []string{wire.EventReleased, wire.EventFinished} {
					for _, g := range groups {
						for _, f := range g.Flows {
							evs = append(evs, wire.FlowEvent{GroupID: g.ID, FlowID: f.ID, Event: kind})
						}
					}
				}
				var job [][]wire.FlowEvent
				for len(evs) > 0 {
					n := min(32, len(evs))
					job, evs = append(job, evs[:n]), evs[n:]
				}
				specs, frames = append(specs, s), append(frames, job)
			}
		}
	}
	return specs, frames
}

// BenchmarkCoordinator_JobLifecycle is one job's whole stay on live-durable's
// configuration (BENCH_journal.json): submit_job, admission, every flow
// released and finished in frames, departure, all through handleMessage. One
// op is one job.
func BenchmarkCoordinator_JobLifecycle(b *testing.B) {
	opts := frameOpts(b, nil, 64)
	opts.Queue = queue.New(queue.Options{MaxJobs: 4})
	opts.SnapshotEvery, opts.GroupCommit, opts.Coalesce = 256, 5*time.Millisecond, 2*time.Millisecond
	opts.Logf = func(string, ...interface{}) {}
	c, err := Restore(opts, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	s := attachSession(c, "a1")
	specs, frames := lifecycleDeck(b)
	seq := c.journal.Seq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(specs)
		if err := c.handleMessage(s, wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: specs[k]}}); err != nil {
			b.Fatal(err)
		}
		for _, f := range frames[k] {
			if err := c.handleMessage(s, wire.Message{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: f}}); err != nil {
				b.Fatal(err)
			}
		}
		for len(s.out) > 0 { // the session's writer
			if m := <-s.out; m.Type == wire.TypeError {
				b.Fatalf("job %s: %s", specs[k].ID, m.Error.Msg)
			}
		}
	}
	b.StopTimer()
	if pending, running := c.QueueDepth(); pending != 0 || running != 0 {
		b.Fatalf("%d jobs pending and %d running after the last departure", pending, running)
	}
	b.ReportMetric(float64(c.journal.Seq()-seq)/float64(b.N), "records/job")
}
