package coordinator

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/queue"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// tickingClock moves a non-uniform amount on every read, like a real clock
// and unlike fakeClock: two reads inside one operation disagree, which is
// what a frozen clock hides.
type tickingClock struct {
	mu    sync.Mutex
	t     time.Time
	reads int
}

func (c *tickingClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	c.t = c.t.Add(time.Duration(1+c.reads%7) * 3700 * time.Microsecond)
	return c.t
}

// flowModel, groupModel and model are everything Restore promises to bring
// back bit for bit. Rates and the parked flag are left out: a restored
// coordinator parks every group at zero rate until its agent redials.
type flowModel struct {
	Released, Finished bool
	Remaining          unit.Bytes
	Release            unit.Time
}

type groupModel struct {
	Owner                string
	RefSet               bool
	Reference, Tardiness unit.Time
	Flows                map[string]flowModel
}

type model struct {
	LastAdvance unit.Time
	Groups      map[string]groupModel
	Pending     []string
	Admitted    map[string][]string
	AdmittedAt  map[string]unit.Time
	FlowsLeft   map[string]int
	Seq         int
}

func modelOf(c *Coordinator) model {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := model{LastAdvance: c.lastAdvance, Groups: make(map[string]groupModel),
		Admitted: make(map[string][]string), AdmittedAt: make(map[string]unit.Time), FlowsLeft: make(map[string]int)}
	for gid, g := range c.groups {
		gm := groupModel{Owner: g.owner, RefSet: g.refSet, Reference: g.state.Reference,
			Tardiness: g.state.AchievedTardiness, Flows: make(map[string]flowModel)}
		for id, f := range g.flows {
			gm.Flows[id] = flowModel{f.released, f.finished, f.remaining, f.release}
		}
		m.Groups[gid] = gm
	}
	if c.queue != nil {
		for _, j := range c.queue.Pending() {
			m.Pending = append(m.Pending, j.Spec.ID)
		}
		for _, a := range c.queue.AdmittedList() {
			m.Admitted[a.Job.Spec.ID] = a.Hosts
			m.AdmittedAt[a.Job.Spec.ID] = a.AdmittedAt
		}
		m.Seq = c.queue.Seq()
	}
	for id, n := range c.jobFlowsLeft {
		m.FlowsLeft[id] = n
	}
	return m
}

// diffModels reports every field in which a restored model departs from the
// live one.
func diffModels(t *testing.T, live, restored model) {
	t.Helper()
	if reflect.DeepEqual(live, restored) {
		return
	}
	if live.LastAdvance != restored.LastAdvance {
		t.Errorf("lastAdvance: live %v, restored %v", live.LastAdvance, restored.LastAdvance)
	}
	for gid, lg := range live.Groups {
		rg, ok := restored.Groups[gid]
		if !ok {
			t.Errorf("group %s lost in restore", gid)
			continue
		}
		for id, lf := range lg.Flows {
			if rf := rg.Flows[id]; rf != lf {
				t.Errorf("flow %s/%s: live %+v, restored %+v", gid, id, lf, rf)
			}
		}
		lg.Flows, rg.Flows = nil, nil
		if !reflect.DeepEqual(lg, rg) {
			t.Errorf("group %s: live %+v, restored %+v", gid, lg, rg)
		}
	}
	live.Groups, restored.Groups = nil, nil
	if !reflect.DeepEqual(live, restored) {
		t.Errorf("queue state: live %+v, restored %+v", live, restored)
	}
}

// Restore is bit-for-bit under a clock that moves between reads: every
// journaled mutation reads the clock once, advances the model to that reading
// and records it, so replay integrates the same intervals with the same rates
// and plans at the same instants. Before the rule was enforced, flow events
// advanced to one reading and journaled a later one, registrations and
// submissions journaled a reading the model never advanced to, and the
// scheduler planned at a third.
func TestRestoreBitForBitUnderTickingClock(t *testing.T) {
	for _, snapEvery := range []int{0, 2} {
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
		// Two groups sharing w1's egress, so every event moves both groups'
		// rates and a misplaced integration interval shows in both.
		ga, err := core.New("ga", core.Pipeline{T: 2},
			&core.Flow{ID: "f0", Src: "w1", Dst: "w2", Size: 2000, Stage: 0},
			&core.Flow{ID: "f1", Src: "w1", Dst: "w2", Size: 2000, Stage: 1})
		if err != nil {
			t.Fatal(err)
		}
		gb, err := core.NewCoflow("gb",
			&core.Flow{ID: "h0", Src: "w1", Dst: "w3", Size: 3000},
			&core.Flow{ID: "h1", Src: "w1", Dst: "w3", Size: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterGroup("a1", ga); err != nil {
			t.Fatal(err)
		}
		script := []wire.FlowEvent{
			{GroupID: "ga", FlowID: "f0", Event: wire.EventReleased},
			{GroupID: "gb", FlowID: "h0", Event: wire.EventReleased},
			{GroupID: "ga", FlowID: "f1", Event: wire.EventReleased},
			{GroupID: "gb", FlowID: "h1", Event: wire.EventReleased},
			{GroupID: "gb", FlowID: "h1", Event: wire.EventFinished},
		}
		for i, ev := range script {
			if i == 1 {
				// A registration between flow events: flows are in flight, so
				// the instant it is journaled at is an integration boundary.
				if err := c.RegisterGroup("a1", gb); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.FlowEvent(ev); err != nil {
				t.Fatal(err)
			}
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

// The same guarantee through the job pipeline: submissions, the admissions
// they trigger, departures and the admissions those trigger all journal the
// instant the model was advanced to.
func TestJobRestoreBitForBitUnderTickingClock(t *testing.T) {
	for _, snapEvery := range []int{0, 3} {
		dir := t.TempDir()
		clk := &tickingClock{t: time.Unix(1000, 0)}
		opts := func() Options {
			o := frameOpts(t, clk.now, 4)
			o.Queue, o.SnapshotEvery = queue.New(queue.Options{MaxJobs: 2}), snapEvery
			return o
		}
		c, err := Restore(opts(), dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"j0", "j1", "j2"} {
			if err := c.SubmitJob("a1", submitSpec(id, 2)); err != nil {
				t.Fatal(err)
			}
		}
		// Run j0 to departure (which admits j2) with j1 half released, so the
		// departure and the admission land while flows are in flight.
		evs0, evs1 := jobEvents(t, c, "j0"), jobEvents(t, c, "j1")
		for _, ev := range evs1[:len(evs1)/2] {
			if ev.Event == wire.EventReleased {
				if _, err := c.FlowEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, ev := range evs0 {
			if _, err := c.FlowEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		if status, _, _ := c.JobStatus("j2"); status != wire.JobAdmitted {
			t.Fatalf("j2 status %q after j0 departed, want admitted", status)
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

// jobEvents lists an admitted job's flow events in the order its agent would
// report them (release, then finish, flow by flow), from the deterministic
// compilation on the admitted placement.
func jobEvents(t testing.TB, c *Coordinator, jobID string) []wire.FlowEvent {
	t.Helper()
	c.mu.Lock()
	a := c.queue.AdmittedJob(jobID)
	c.mu.Unlock()
	if a == nil {
		t.Fatalf("job %s not admitted", jobID)
	}
	w, err := queue.Build(a.Job.Spec, a.Hosts)
	if err != nil {
		t.Fatal(err)
	}
	var evs []wire.FlowEvent
	for _, n := range w.Graph.Nodes() {
		if n.Kind != dag.Comm {
			continue
		}
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		evs = append(evs,
			wire.FlowEvent{GroupID: gid, FlowID: n.ID, Event: wire.EventReleased},
			wire.FlowEvent{GroupID: gid, FlowID: n.ID, Event: wire.EventFinished})
	}
	return evs
}
