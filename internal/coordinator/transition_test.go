package coordinator

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/journal"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// digest is the complete control-plane state: the model Restore brings back
// (model) plus what Restore deliberately resets afterwards — stored rates and
// parked flags, which a replay must still reproduce before the recovered
// groups are quarantined — the job indexes, the fabric's capacities, and
// whether a fallback allocation is in force.
type digest struct {
	model
	Rates     map[string]unit.Rate // "group/flow" → stored rate
	Parked    map[string]bool
	JobGroups map[string][]string
	GroupJob  map[string]string
	Capacity  map[string][2]unit.Rate // host → egress, ingress
	Dirty     bool
}

func digestOf(c *Coordinator) digest {
	d := digest{model: modelOf(c), Rates: make(map[string]unit.Rate), Parked: make(map[string]bool),
		JobGroups: make(map[string][]string), GroupJob: make(map[string]string), Capacity: make(map[string][2]unit.Rate)}
	c.mu.Lock()
	defer c.mu.Unlock()
	d.Dirty = c.dirty
	for gid, g := range c.groups {
		d.Parked[gid] = g.parked
		for id, f := range g.flows {
			d.Rates[gid+"/"+id] = f.rate
		}
	}
	for jobID, set := range c.jobGroups {
		for gid := range set {
			d.JobGroups[jobID] = append(d.JobGroups[jobID], gid)
		}
		sort.Strings(d.JobGroups[jobID])
	}
	for gid, jobID := range c.groupJob {
		d.GroupJob[gid] = jobID
	}
	for _, h := range c.opts.Net.Hosts() {
		eg, in, _ := c.opts.Net.Capacity(h.Name)
		d.Capacity[h.Name] = [2]unit.Rate{eg, in}
	}
	return d
}

// diffDigests reports every field in which a replayed digest departs from
// the live one.
func diffDigests(t *testing.T, live, replayed digest) {
	t.Helper()
	diffModels(t, live.model, replayed.model)
	for _, f := range []struct {
		name       string
		live, repl interface{}
	}{
		{"rates", live.Rates, replayed.Rates}, {"parked", live.Parked, replayed.Parked},
		{"jobGroups", live.JobGroups, replayed.JobGroups}, {"groupJob", live.GroupJob, replayed.GroupJob},
		{"capacity", live.Capacity, replayed.Capacity}, {"dirty", live.Dirty, replayed.Dirty},
	} {
		if !reflect.DeepEqual(f.live, f.repl) {
			t.Errorf("%s: live %v, replayed %v", f.name, f.live, f.repl)
		}
	}
}

// replayed rebuilds a coordinator from a journal directory the way Restore
// does, stopping short of quarantining what it recovered: rates, parked flags
// and the reschedule count are still the replay's own. It only reads dir, so
// the live coordinator that is writing there is the "crashed" one.
func replayed(t *testing.T, opts Options, dir string) *Coordinator {
	t.Helper()
	rec, err := journal.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.replayLocked(rec); err != nil {
		t.Fatal(err)
	}
	return c
}

// journalKinds parses journal.go for the j* record-kind constants.
func journalKinds(t *testing.T) map[string]string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "journal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]string)
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if n := name.Name; ok && lit.Kind == token.STRING && len(n) > 1 && n[0] == 'j' && n[1] >= 'A' && n[1] <= 'Z' {
					if kinds[n], err = strconv.Unquote(lit.Value); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if len(kinds) < 13 {
		t.Fatalf("found only %d record kinds in journal.go: %v", len(kinds), kinds)
	}
	return kinds
}

// A record kind cannot exist on the live side alone: every j* constant has a
// case in the one transition, which is what Restore runs.
func TestEveryRecordKindHasATransition(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	for name, kind := range journalKinds(t) {
		c, err := New(jobFrameOpts(t, clk.now))
		if err != nil {
			t.Fatal(err)
		}
		// An empty record of a known kind may be refused for its payload,
		// never for its kind.
		if _, err := c.commitLocked(&journalEvent{Kind: kind}); err != nil && strings.Contains(err.Error(), "unknown journal record kind") {
			t.Errorf("%s (%q) has no transition: %v", name, kind, err)
		}
	}
	c, err := New(jobFrameOpts(t, clk.now))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.commitLocked(&journalEvent{Kind: "from-the-future", At: 5}); err == nil || c.lastAdvance != 0 {
		t.Errorf("unknown kind: err %v, model at %v; want it refused with the model unmoved", err, c.lastAdvance)
	}
}

// contendingGroups is a pipeline and a coflow sharing w1's egress, so every
// event moves both groups' rates, with flows large enough to outlive a
// two-hour clock jump at 10 B/s.
func contendingGroups(t *testing.T) (ga, gb *core.EchelonFlow) {
	t.Helper()
	ga, err := core.New("ga", core.Pipeline{T: 2},
		&core.Flow{ID: "f0", Src: "w1", Dst: "w2", Size: 200000, Stage: 0},
		&core.Flow{ID: "f1", Src: "w1", Dst: "w2", Size: 200000, Stage: 1})
	if err != nil {
		t.Fatal(err)
	}
	gb, err = core.NewCoflow("gb",
		&core.Flow{ID: "h0", Src: "w1", Dst: "w3", Size: 300000},
		&core.Flow{ID: "h1", Src: "w2", Dst: "w3", Size: 100000})
	if err != nil {
		t.Fatal(err)
	}
	return ga, gb
}

// flakyDelta is flakySched over the incremental scheduler: Schedule can be
// made to fail, Apply, Prime and the plan cache are the real ones.
type flakyDelta struct {
	*sched.DeltaEchelon
	flaky flakySched
}

func (s flakyDelta) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	return s.flaky.Schedule(snap, net)
}

// One scripted run writes every record kind; after every operation the
// coordinator "crashes" and a replay of its journal must equal it in every
// field of the digest, bit for bit — on the full-pass scheduler and on the
// delta path, from the WAL alone and across compactions, under a clock that
// moves on every read.
func TestLiveEqualsRestorePerRecordKind(t *testing.T) {
	schedulers := []struct {
		name string
		make func(fail *bool) sched.Scheduler
	}{
		{"EchelonMADD", func(fail *bool) sched.Scheduler {
			return flakySched{inner: sched.EchelonMADD{Backfill: true}, fail: fail, once: true}
		}},
		{"NewDelta(EchelonMADD)", func(fail *bool) sched.Scheduler {
			d := sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()})
			return flakyDelta{d, flakySched{inner: d, fail: fail, once: true}}
		}},
	}
	for _, sc := range schedulers {
		for _, snapEvery := range []int{0, 5} {
			t.Run(fmt.Sprintf("%s/snapshot-every-%d", sc.name, snapEvery), func(t *testing.T) {
				dir := t.TempDir()
				clk := &tickingClock{t: time.Unix(1000, 0)}
				opts := func(fail *bool) Options {
					o := jobFrameOpts(t, clk.now)
					o.Scheduler, o.SnapshotEvery = sc.make(fail), snapEvery
					o.Logf = func(string, ...interface{}) {}
					return o
				}
				var fail bool
				c, err := Restore(opts(&fail), dir)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				seen := make(map[string]bool)
				note := func() {
					recs, _ := walRecords(t, dir)
					for _, r := range recs {
						switch {
						case r.Kind == jFlow && r.Defer:
							seen["flow deferred"] = true
						case r.Kind == jJobDeparted && len(r.Groups) == 0:
							seen["job-departed without groups"] = true
						default:
							seen[r.Kind] = true
						}
					}
				}
				must := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				frame := func(evs ...wire.FlowEvent) func() {
					return func() {
						if _, errs := c.flowFrame(evs, false); len(errs) > 0 {
							t.Fatal(errs)
						}
					}
				}
				coalesce := func(d time.Duration) {
					c.mu.Lock()
					c.opts.Coalesce = d
					c.mu.Unlock()
				}
				ga, gb := contendingGroups(t)
				released := func(gid, id string) wire.FlowEvent {
					return wire.FlowEvent{GroupID: gid, FlowID: id, Event: wire.EventReleased}
				}
				jobGroupsOf := func(id string) []string { return jobGroupIDs(t, submitSpec(id, 2)) }
				steps := []struct {
					name string
					do   func()
				}{
					{"register", func() { must(c.RegisterGroup("a1", ga)); must(c.RegisterGroup("a2", gb)) }},
					{"flow", frame(released("ga", "f0"), released("gb", "h0"))},
					{"tick", func() { _, err := c.Tick(); must(err) }},
					{"flow deferred", func() { coalesce(time.Hour); frame(released("ga", "f1"), released("gb", "h1"))() }},
					{"tick closing the batch: resched, tick", func() { _, err := c.Tick(); must(err); coalesce(0) }},
					{"capacity", func() { must(c.SetCapacity("w1", 6, 8)) }},
					{"park", func() { c.dropSession(&session{agent: "a1"}) }},
					{"tick while parked", func() { _, err := c.Tick(); must(err) }},
					{"revive by re-registration", func() { must(c.RegisterGroup("a1", ga)) }},
					{"park again", func() { c.dropSession(&session{agent: "a1"}) }},
					{"failed rejoin: revive, reschedule error, park", func() {
						fail = true
						if err := c.RegisterGroup("a1", ga); err == nil || !c.GroupParked("ga") {
							t.Fatalf("rejoin under a failing scheduler: err %v, parked %v", err, c.GroupParked("ga"))
						}
					}},
					{"revive by session adoption", func() {
						c.adoptSession(&session{agent: "a1", sent: make(map[string]unit.Rate),
							out: make(chan wire.Message, 1024), quit: make(chan struct{})})
					}},
					{"job-queued, job-admitted", func() { must(c.SubmitJob("a3", submitSpec("j0", 2))) }},
					{"job-queued behind MaxJobs", func() {
						must(c.SubmitJob("a3", submitSpec("j1", 2)))
						must(c.SubmitJob("a3", submitSpec("wide", 5))) // places nowhere on four hosts
						must(c.SubmitJob("a3", submitSpec("j2", 2)))
					}},
					{"flow, job-departed, job-admitted", func() { frame(jobEvents(t, c, "j0")...)() }},
					{"unregister dissolving j1: job-departed without groups (wide), job-admitted (j2)", func() {
						for _, gid := range jobGroupsOf("j1") {
							_, err := c.UnregisterGroup(gid)
							must(err)
						}
						if status, _, _ := c.JobStatus("j2"); status != wire.JobAdmitted {
							t.Fatalf("j2 is %q after j1 dissolved and wide was rejected, want admitted", status)
						}
					}},
					{"park a job's groups", func() { c.dropSession(&session{agent: "a3"}) }},
					{"evict dissolving j2", func() {
						clk.mu.Lock()
						clk.t = clk.t.Add(2 * time.Hour) // past the quarantine window
						clk.mu.Unlock()
						for _, gid := range jobGroupsOf("j2") {
							c.evictIfStillParked(gid, c.groups[gid].parkGen)
						}
						if _, running := c.QueueDepth(); running != 0 {
							t.Fatalf("%d job(s) still admitted after j2's groups were evicted", running)
						}
					}},
					{"flow after it all", frame(wire.FlowEvent{GroupID: "ga", FlowID: "f0", Event: wire.EventFinished})},
				}
				for _, step := range steps {
					step.do()
					note()
					replayFail := false
					c2 := replayed(t, opts(&replayFail), dir)
					diffDigests(t, digestOf(c), digestOf(c2))
					if t.Failed() {
						t.Fatalf("after %q", step.name)
					}
				}
				if snapEvery > 0 {
					return // compaction drops a record with the pass that follows it
				}
				for _, kind := range journalKinds(t) {
					if !seen[kind] {
						t.Errorf("the script never wrote a %q record", kind)
					}
				}
				for _, variant := range []string{"flow deferred", "job-departed without groups"} {
					if !seen[variant] {
						t.Errorf("the script never wrote a %s record", variant)
					}
				}
			})
		}
	}
}

// Tick is a journaled transition: the delta scheduler with ticks between flow
// events comes back bit for bit — model time, every flow's remaining, rate and
// release, group references and tardiness, and the number of passes the
// replayed tail ran — from the WAL alone and across compactions, under the
// clock that moves a non-uniform amount per read. (Unjournaled, a tick's
// advance and full pass were simply missing from the replay.)
func TestTickRestoreBitForBitUnderTickingClock(t *testing.T) {
	for _, snapEvery := range []int{0, 3} {
		dir := t.TempDir()
		clk := &tickingClock{t: time.Unix(1000, 0)}
		opts := func() Options {
			o := frameOpts(t, clk.now, 3)
			o.SnapshotEvery = snapEvery
			return o
		}
		c, err := Restore(opts(), dir)
		if err != nil {
			t.Fatal(err)
		}
		ga, gb := contendingGroups(t)
		for _, g := range []*core.EchelonFlow{ga, gb} {
			if err := c.RegisterGroup("a1", g); err != nil {
				t.Fatal(err)
			}
		}
		// sinceSnapshot is the live pass count at the last compaction: the
		// replayed tail starts counting there.
		sinceSnapshot := 0
		for _, ev := range []wire.FlowEvent{
			{GroupID: "ga", FlowID: "f0", Event: wire.EventReleased},
			{}, // tick
			{GroupID: "gb", FlowID: "h0", Event: wire.EventReleased},
			{},
			{},
			{GroupID: "ga", FlowID: "f1", Event: wire.EventReleased},
			{GroupID: "gb", FlowID: "h1", Event: wire.EventReleased},
			{},
			{GroupID: "gb", FlowID: "h1", Event: wire.EventFinished},
			{},
		} {
			if ev.Event == "" {
				_, err = c.Tick()
			} else {
				_, err = c.FlowEvent(ev)
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.journalEvents == 0 {
				sinceSnapshot = c.Reschedules()
			}
		}
		c2 := replayed(t, opts(), dir)
		diffDigests(t, digestOf(c), digestOf(c2))
		if live, repl := c.Reschedules()-sinceSnapshot, c2.Reschedules(); live != repl {
			t.Errorf("SnapshotEvery %d: %d reschedules live since the last compaction, %d replayed", snapEvery, live, repl)
		}
		if _, kinds := walRecords(t, dir); snapEvery == 0 && strings.Count(kinds, jTick) != 5 {
			t.Errorf("WAL %q: want 5 tick records", kinds)
		}
		c.Close()
	}
}

// dissolveJ0 submits j0 and j1 where one job runs at a time, then removes
// every group of j0 without its flows finishing: by unregistering them, or by
// its owner's session dying with no quarantine window.
func dissolveJ0(t *testing.T, evict bool) (c *Coordinator, restore func() *Coordinator) {
	t.Helper()
	dir := t.TempDir()
	clk := &tickingClock{t: time.Unix(1000, 0)}
	opts := func() Options {
		o := jobFrameOpts(t, clk.now)
		if evict {
			o.QuarantineTimeout = 0
		}
		return o
	}
	c, err := Restore(opts(), dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, id := range []string{"j0", "j1"} {
		if err := c.SubmitJob("a1", submitSpec(id, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if evict {
		c.dropSession(&session{agent: "a1"})
	} else {
		for _, gid := range jobGroupIDs(t, submitSpec("j0", 2)) {
			if _, err := c.UnregisterGroup(gid); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c, func() *Coordinator {
		c2, err := Restore(opts(), dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c2.Close() })
		return c2
	}
}

// Regression: replay of unregister and evict records did not dissolve job
// membership as the live path does, so a job whose groups had all left came
// back from a crash admitted with zero groups and held its MaxJobs slot for
// ever (live running=0, restored running=1, jobFlowsLeft[j0]=4).
func TestReplayDissolvesJobMembership(t *testing.T) {
	for _, evict := range []bool{false, true} {
		c, restore := dissolveJ0(t, evict)
		c2 := restore()
		lp, lr := c.QueueDepth()
		if rp, rr := c2.QueueDepth(); lp != rp || lr != rr {
			t.Errorf("evict=%v: queue depth live %d pending/%d running, restored %d/%d", evict, lp, lr, rp, rr)
		}
		if _, _, ok := c2.JobStatus("j0"); ok {
			t.Errorf("evict=%v: restored coordinator still holds j0, whose groups are all gone", evict)
		}
		if !reflect.DeepEqual(c.jobFlowsLeft, c2.jobFlowsLeft) || !reflect.DeepEqual(c.groupJob, c2.groupJob) {
			t.Errorf("evict=%v: jobFlowsLeft live %v restored %v; groupJob live %v restored %v",
				evict, c.jobFlowsLeft, c2.jobFlowsLeft, c.groupJob, c2.groupJob)
		}
	}
}

// Regression: when an unregister or an eviction removed a job's last group,
// the freed admission slot was not offered to the queue — the next job stayed
// queued with nothing running until an unrelated submission or departure. The
// dissolving record now admits it, at its own instant, as an ordinary
// job-admitted record.
func TestDissolveAdmitsQueuedJob(t *testing.T) {
	for _, evict := range []bool{false, true} {
		c, restore := dissolveJ0(t, evict)
		if status, _, _ := c.JobStatus("j1"); status != wire.JobAdmitted {
			t.Errorf("evict=%v: j1 is %q after j0 dissolved, want admitted", evict, status)
		}
		if pending, running := c.QueueDepth(); pending != 0 || running != 1 {
			t.Errorf("evict=%v: %d pending, %d running; want 0, 1", evict, pending, running)
		}
		recs, _ := walRecords(t, c.journal.Dir())
		if n := len(recs); n < 2 || recs[n-1].Kind != jJobAdmitted || recs[n-1].JobID != "j1" || recs[n-1].At != recs[n-2].At {
			t.Errorf("evict=%v: journal ends %+v, want j1's job-admitted at the dissolving record's instant", evict, recs[max(0, n-2):])
		}
		want := modelOf(c)
		diffModels(t, want, modelOf(restore()))
	}
}

// Journals written by the parent of the one-codec change (commit 45eb227),
// with every record kind it could write, restore to the digest the parent's
// own Restore produced from them — from the WAL alone (tail) and from a
// snapshot file plus the records after it (compacted).
func TestRestoreReadsParentJournal(t *testing.T) {
	for _, name := range []string{"tail", "compacted"} {
		src := filepath.Join("testdata", "journal-pr30", name)
		dir := t.TempDir()
		for _, file := range []string{"wal", "snapshot"} {
			data, err := os.ReadFile(filepath.Join(src, file))
			if os.IsNotExist(err) && file == "snapshot" && name == "tail" {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, kinds := walRecords(t, dir)
		if name == "tail" {
			for _, kind := range journalKinds(t) {
				if !strings.Contains(kinds, kind) {
					t.Errorf("tail fixture has no %q record", kind)
				}
			}
		}
		raw, err := os.ReadFile(filepath.Join(src, "digest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var want digest
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{t: time.Unix(20000, 0)}
		opts := jobFrameOpts(t, clk.now)
		opts.Logf = func(format string, args ...interface{}) {
			if strings.Contains(format, "skipping") {
				t.Errorf("%s: "+format, append([]interface{}{name}, args...)...)
			}
		}
		c, err := Restore(opts, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := digestOf(c)
		c.Close()
		// JSON has no nil-versus-empty distinction; normalise through it.
		if raw, err = json.Marshal(got); err != nil {
			t.Fatal(err)
		}
		got = digest{}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		diffDigests(t, want, got)
		if t.Failed() {
			t.Fatalf("fixture %s (records: %s)", name, kinds)
		}
	}
}
