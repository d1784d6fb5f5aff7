// Coordinator durability: every state-mutating event is appended to a
// write-ahead journal (internal/journal) and the whole control-plane state
// is periodically compacted into a snapshot. The live path and Restore run
// one state machine (commitLocked): the live side decides a record, Restore
// reads it back, and the same function advances, mutates and reschedules —
// the scheduler is deterministic, so fluid-model remaining volumes, reference
// times and achieved tardiness come back bit-for-bit. Recovered groups
// re-enter quarantine until their agents redial; the existing reconnect +
// wire-v2 resume machinery then adopts them in place.
package coordinator

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/journal"
	"echelonflow/internal/queue"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// slowFsync is the journal-append latency beyond which a journal-fsync
// lifecycle event is recorded (the latency histogram sees every append).
const slowFsync = 10 * time.Millisecond

// Journal event kinds. One record is appended per state mutation; park,
// revive and evict carry group batches so replay reschedules exactly as
// often as the live run did.
const (
	jGenesis    = "genesis"    // coordinator born: records the wall start time
	jRegister   = "register"   // new group registered
	jUnregister = "unregister" // group departed
	jFlow       = "flow"       // one frame of flow lifecycle events (released/finished/resumed)
	jCapacity   = "capacity"   // fabric capacity override
	jPark       = "park"       // owner died, groups quarantined
	jRevive     = "revive"     // owner rejoined, groups resumed
	jEvict      = "evict"      // quarantine expired or disabled, groups removed
	jResched    = "resched"    // coalesced batch boundary: one reschedule over Groups
	jTick       = "tick"       // interval tick: advance and one full pass (At only)

	// Job-arrival pipeline records. A departed record with Groups is a
	// completed job; with no Groups it is an admission-time rejection (the
	// job left the queue without ever registering groups).
	jJobQueued   = "job-queued"   // submission accepted into the queue
	jJobAdmitted = "job-admitted" // job placed on Hosts and its groups registered
	jJobDeparted = "job-departed" // job completed (Groups removed) or rejected
)

// journalEvent is one WAL record (encoded by journalcodec.go; the JSON tags
// define the reference round trip its binary encoding is tested against).
// At is the scheduler time of the mutation: the live path reads the clock
// once per journaled mutation, advances the fluid model to that reading and
// records the resulting lastAdvance, and replay advances to At before
// re-applying — so integration intervals, release times and planning
// instants match the live run exactly.
type journalEvent struct {
	Kind     string           `json:"kind"`
	At       unit.Time        `json:"at"`
	Wall     int64            `json:"wall,omitempty"` // genesis: start time, UnixNano
	Owner    string           `json:"owner,omitempty"`
	Register *wire.Register   `json:"register,omitempty"`
	Flows    []wire.FlowEvent `json:"flows,omitempty"` // flow: the frame's applied events, in order
	Defer    bool             `json:"defer,omitempty"` // flow record absorbed into a coalesced batch: no reschedule here
	Groups   []string         `json:"groups,omitempty"`
	Host     string           `json:"host,omitempty"`
	Egress   unit.Rate        `json:"egress,omitempty"`
	Ingress  unit.Rate        `json:"ingress,omitempty"`
	Job      *wire.JobSpec    `json:"job,omitempty"`    // job-queued: the submitted spec
	JobID    string           `json:"job_id,omitempty"` // job-admitted/departed
	Hosts    []string         `json:"hosts,omitempty"`  // job-admitted: the placement
	// Fallback: the record's pass ran the max-min fair fallback of the
	// scheduler deadline budget, and replay runs it too. Absent, the primary
	// ran — as in every record written before the field existed.
	Fallback bool `json:"fallback,omitempty"`

	// In-memory forms the live side already holds, never serialised: the
	// group Register encodes, the plan SubmitJob compiled before taking the
	// lock, and the admission queue.Next made (replay compiles the spec in
	// the refusal step and re-makes the admission from JobID and Hosts).
	group    *core.EchelonFlow
	plan     *queue.Plan
	admitted *queue.Admitted
}

// snapshotState is the compacted control-plane state: everything needed to
// resume scheduling without the WAL records it covers. The JSON tags define
// the reference round trip its binary encoding is tested against
// (journalcodec.go).
type snapshotState struct {
	Wall   int64           `json:"wall"` // coordinator start, UnixNano
	At     unit.Time       `json:"at"`   // fluid model position when taken
	Hosts  []snapshotHost  `json:"hosts,omitempty"`
	Groups []snapshotGroup `json:"groups"`
	Jobs   *snapshotJobs   `json:"jobs,omitempty"` // queue state, when a queue is configured
}

// snapshotHost records a host's NIC capacities at snapshot time. Capacity
// mutations are journaled as jCapacity records, but compaction drops the
// tail they live in — without this the restored fabric would revert to its
// construction-time capacities, silently undoing every degrade/recovery
// that preceded the snapshot.
type snapshotHost struct {
	Name    string    `json:"name"`
	Egress  unit.Rate `json:"egress"`
	Ingress unit.Rate `json:"ingress"`
}

// snapshotJobs compacts the job queue: pending submissions, admitted
// placements, and the next sequence number. Estimates are recorded rather
// than recomputed so a restored queue is bit-for-bit the captured one.
type snapshotJobs struct {
	Seq      int           `json:"seq"`
	Pending  []snapshotJob `json:"pending,omitempty"`
	Admitted []snapshotJob `json:"admitted,omitempty"`
}

type snapshotJob struct {
	Spec       wire.JobSpec `json:"spec"`
	Owner      string       `json:"owner,omitempty"`
	Arrival    unit.Time    `json:"arrival"`
	Seq        int          `json:"seq"`
	Est        unit.Time    `json:"est"`
	EstStable  bool         `json:"est_stable,omitempty"`
	Bytes      unit.Bytes   `json:"bytes"`
	Demand     unit.Rate    `json:"demand"`
	Hosts      []string     `json:"hosts,omitempty"` // admitted jobs only
	AdmittedAt unit.Time    `json:"admitted_at,omitempty"`
}

type snapshotGroup struct {
	Owner     string         `json:"owner"`
	Register  wire.Register  `json:"register"`
	Parked    bool           `json:"parked,omitempty"`
	RefSet    bool           `json:"ref_set,omitempty"`
	Reference unit.Time      `json:"reference"`
	Tardiness unit.Time      `json:"tardiness"`
	Flows     []snapshotFlow `json:"flows"`
}

type snapshotFlow struct {
	ID        string     `json:"id"`
	Released  bool       `json:"released,omitempty"`
	Finished  bool       `json:"finished,omitempty"`
	Remaining unit.Bytes `json:"remaining"`
	Rate      unit.Rate  `json:"rate,omitempty"`
	Release   unit.Time  `json:"release,omitempty"`
}

// appendJournalLocked records one event. Nil journal and replay are no-ops.
// An append failure latches the journal broken (fail-fast: a WAL that lost
// an fsync can no longer promise bit-for-bit recovery, so it refuses every
// later append rather than quietly leaving holes); the coordinator keeps
// serving without durability, announcing the transition exactly once.
func (c *Coordinator) appendJournalLocked(ev journalEvent) {
	if c.journal == nil || c.replaying {
		return
	}
	if err := c.journal.Broken(); err != nil {
		// Latched earlier — by a failed append here, or by the group-commit
		// window timer flushing in the background. Either way announce the
		// transition exactly once, then stay quiet.
		c.noteJournalBrokenLocked(err, ev.At)
		return
	}
	var err error
	if ev.group != nil && ev.Register == nil {
		var reg wire.Register
		if reg, err = wire.RegisterOf(ev.group); err == nil {
			ev.Register = &reg
		}
	}
	if err == nil {
		c.jbuf, err = appendRecordPayload(c.jbuf[:0], &ev)
	}
	if err != nil {
		// The mutation is applied but cannot be recorded: the WAL would
		// silently miss it, so the journal latches broken like a failed
		// append and refuses everything after.
		err = fmt.Errorf("journal: encode %s record: %w", ev.Kind, err)
		c.journal.Fail(err)
		c.noteJournalBrokenLocked(err, ev.At)
		return
	}
	t0 := time.Now()
	if d := c.fsyncStall.Load(); d > 0 {
		// Injected gray-failure latency (faults.FsyncStall): inside the
		// measured window so the latency histogram and slow-fsync events
		// see it exactly like a genuinely slow disk.
		time.Sleep(time.Duration(d))
	}
	if err := c.journal.Append(c.jbuf); err != nil {
		c.noteJournalBrokenLocked(err, ev.At)
		return
	}
	elapsed := time.Since(t0)
	c.tel.fsyncLat.Observe(elapsed.Seconds())
	if elapsed >= slowFsync {
		// Only slow appends reach the event ring: fsync runs on every
		// mutation and would otherwise drown the lifecycle history.
		c.event(telemetry.Event{Kind: telemetry.EventFsync, At: float64(ev.At),
			Detail: fmt.Sprintf("%s append took %v", ev.Kind, elapsed)})
	}
	// SnapshotEvery counts journaled events, not records: a frame of N flow
	// events moves the compaction threshold (and the recovery bound) by N.
	// Compaction itself waits for the pass that follows the record to be
	// published (publishLocked).
	c.journalEvents += max(1, len(ev.Flows))
}

// noteJournalBrokenLocked announces a broken journal exactly once — the
// coordinator keeps serving without durability. The latch can be set on the
// append path or by the group-commit background flush, so announcement is
// tracked here rather than inferred from the journal's own state.
func (c *Coordinator) noteJournalBrokenLocked(err error, at unit.Time) {
	if c.journalBrokenSeen {
		return
	}
	c.journalBrokenSeen = true
	c.opts.Logf("coordinator: journal append failed, journaling disabled: %v", err)
	c.tel.journalBroken.Set(1)
	c.event(telemetry.Event{Kind: telemetry.EventJournalBroken, At: float64(at),
		Detail: err.Error()})
}

// snapshotLocked compacts current state into one checkpoint: a binary
// encode into the reused buffer and one journal append (a rewrite of the
// snapshot file only when the WAL has outgrown its bound).
func (c *Coordinator) snapshotLocked() {
	if c.journal == nil {
		return
	}
	hosts := c.opts.Net.Hosts()
	st := snapshotState{Wall: c.start.UnixNano(), At: c.lastAdvance, Hosts: make([]snapshotHost, 0, len(hosts)),
		Groups: make([]snapshotGroup, 0, len(c.groups))}
	for _, h := range hosts {
		eg, in, ok := c.opts.Net.Capacity(h.Name)
		if !ok {
			continue
		}
		st.Hosts = append(st.Hosts, snapshotHost{Name: h.Name, Egress: eg, Ingress: in})
	}
	gids := make([]string, 0, len(c.groups))
	nflows := 0
	for gid, g := range c.groups {
		gids = append(gids, gid)
		nflows += len(g.flows)
	}
	sort.Strings(gids)
	flows := make([]snapshotFlow, 0, nflows) // one arena, sliced per group
	for _, gid := range gids {
		g := c.groups[gid]
		if g.reg == nil {
			reg, err := wire.RegisterOf(g.state.Group)
			if err != nil {
				c.opts.Logf("coordinator: snapshot: cannot serialize group %q: %v", gid, err)
				continue
			}
			g.reg = &reg
		}
		for _, f := range g.state.Group.Flows {
			rt := g.flows[f.ID]
			flows = append(flows, snapshotFlow{
				ID: f.ID, Released: rt.released, Finished: rt.finished,
				Remaining: rt.remaining, Rate: rt.rate, Release: rt.release,
			})
		}
		st.Groups = append(st.Groups, snapshotGroup{
			Owner: g.owner, Register: *g.reg, Parked: g.parked, RefSet: g.refSet,
			Reference: g.state.Reference, Tardiness: g.state.AchievedTardiness,
			Flows: flows[len(flows)-len(g.state.Group.Flows) : len(flows) : len(flows)],
		})
	}
	if c.queue != nil {
		jobs := &snapshotJobs{Seq: c.queue.Seq()}
		for _, j := range c.queue.Pending() {
			jobs.Pending = append(jobs.Pending, snapshotJobOf(j, nil, 0))
		}
		for _, a := range c.queue.AdmittedList() {
			jobs.Admitted = append(jobs.Admitted, snapshotJobOf(a.Job, a.Hosts, a.AdmittedAt))
		}
		st.Jobs = jobs
	}
	body, err := appendSnapshotPayload(c.jbuf[:0], &st)
	if err != nil {
		c.opts.Logf("coordinator: snapshot encode: %v", err)
		return
	}
	c.jbuf = body
	if err := c.journal.Checkpoint(body); err != nil {
		c.opts.Logf("coordinator: snapshot: %v", err)
		return
	}
	c.tel.snapshots.Inc()
	if c.eventsOn() {
		c.event(telemetry.Event{Kind: telemetry.EventSnapshot, At: float64(c.lastAdvance),
			Detail: fmt.Sprintf("%d group(s) compacted", len(st.Groups))})
	}
	c.journalEvents = 0
}

// snapshotJobOf captures one queue entry.
func snapshotJobOf(j *queue.Job, hosts []string, at unit.Time) snapshotJob {
	return snapshotJob{
		Spec: j.Spec, Owner: j.Owner, Arrival: j.Arrival, Seq: j.Seq,
		Est: j.Est, EstStable: j.EstStable, Bytes: j.Bytes, Demand: j.Demand,
		Hosts: hosts, AdmittedAt: at,
	}
}

// jobOf rebuilds a queue entry from its snapshot.
func jobOf(sj snapshotJob) *queue.Job {
	return &queue.Job{
		Spec: sj.Spec, Owner: sj.Owner, Arrival: sj.Arrival, Seq: sj.Seq,
		Est: sj.Est, EstStable: sj.EstStable, Bytes: sj.Bytes, Demand: sj.Demand,
	}
}

// restoreJobsLocked rebuilds the queue and the job→group index from a
// snapshot. Group membership is recompiled from the recorded specs (group
// IDs do not depend on the placement) and intersected with the groups the
// snapshot actually restored — a group individually unregistered before the
// snapshot must not rejoin its job.
func (c *Coordinator) restoreJobsLocked(sj *snapshotJobs) error {
	if c.queue == nil {
		return fmt.Errorf("coordinator: snapshot carries job-queue state but no queue is configured")
	}
	pending := make([]*queue.Job, 0, len(sj.Pending))
	for _, p := range sj.Pending {
		pending = append(pending, jobOf(p))
	}
	admitted := make([]*queue.Admitted, 0, len(sj.Admitted))
	for _, a := range sj.Admitted {
		admitted = append(admitted, &queue.Admitted{
			Job: jobOf(a), Hosts: append([]string(nil), a.Hosts...), AdmittedAt: a.AdmittedAt,
		})
	}
	c.queue.Restore(pending, admitted, sj.Seq)
	for _, a := range sj.Admitted {
		plan, err := queue.Compile(a.Spec)
		if err != nil {
			return fmt.Errorf("coordinator: snapshot job %q: %w", a.Spec.ID, err)
		}
		gids := plan.GroupIDs()
		for _, gid := range gids {
			g, live := c.groups[gid]
			if !live || g.owner != a.Owner {
				continue
			}
			if c.jobGroups[a.Spec.ID] == nil {
				c.jobGroups[a.Spec.ID] = make(map[string]bool, len(gids))
			}
			c.jobGroups[a.Spec.ID][gid] = true
			c.groupJob[gid] = a.Spec.ID
			for _, f := range g.flows {
				if !f.finished {
					c.jobFlowsLeft[a.Spec.ID]++
				}
			}
		}
	}
	c.jobGaugesLocked()
	return nil
}

// applySnapshotLocked rebuilds group state from a snapshot payload.
func (c *Coordinator) applySnapshotLocked(payload []byte) error {
	st, err := decodeSnapshot(payload)
	if err != nil {
		return fmt.Errorf("coordinator: corrupt snapshot: %w", err)
	}
	c.start = time.Unix(0, st.Wall)
	c.lastAdvance = st.At
	for _, sh := range st.Hosts {
		if eg, in, ok := c.opts.Net.Capacity(sh.Name); ok && eg == sh.Egress && in == sh.Ingress {
			continue // already at the recorded capacity; don't churn the generation
		}
		if err := c.opts.Net.SetCapacity(sh.Name, sh.Egress, sh.Ingress); err != nil {
			return fmt.Errorf("coordinator: snapshot host %q: %w", sh.Name, err)
		}
	}
	for _, sg := range st.Groups {
		g, err := sg.Register.Group()
		if err != nil {
			return fmt.Errorf("coordinator: snapshot group %q: %w", sg.Register.GroupID, err)
		}
		if err := c.addGroupLocked(sg.Owner, g); err != nil {
			return err
		}
		rt := c.groups[g.ID]
		rt.parked = sg.Parked
		rt.refSet = sg.RefSet
		rt.state.Reference = sg.Reference
		rt.state.AchievedTardiness = sg.Tardiness
		for _, sf := range sg.Flows {
			f, ok := rt.flows[sf.ID]
			if !ok {
				return fmt.Errorf("coordinator: snapshot group %q has unknown flow %q", g.ID, sf.ID)
			}
			f.released, f.finished = sf.Released, sf.Finished
			f.remaining, f.rate, f.release = sf.Remaining, sf.Rate, sf.Release
		}
	}
	if st.Jobs != nil {
		if err := c.restoreJobsLocked(st.Jobs); err != nil {
			return err
		}
	}
	return nil
}

// commitLocked is the coordinator's one state transition. The live path
// decides a record (validates the request, closes the open batch where the
// kind is non-coalescible, reads the clock once), Restore reads one from the
// journal, and both hand it here:
//
//	refuse → advance to ev.At → mutate → plan → record → publish
//
// A refused record changes nothing and does not move the model: it leaves no
// record for replay to advance at. The append follows the mutation (a flow
// record carries only the events that applied) and the plan (the record
// carries the pass's outcome, Fallback), and precedes the publish: nothing
// leaves the coordinator before its record, and compaction's single site is
// the end of a successful publish. Follow-up
// decisions — departing a job the frame completed, admitting into a freed
// slot, re-parking after a failed revive — are the live callers' and arrive
// here as records of their own, which is all replay needs.
func (c *Coordinator) commitLocked(ev *journalEvent) (map[string]unit.Rate, error) {
	// Refusals. The fabric and the queue validate inside their own mutations;
	// neither reads the fluid model, so those run ahead of the advance.
	var err error
	switch ev.Kind {
	case jGenesis:
		c.start = time.Unix(0, ev.Wall)
		return nil, nil
	case jRegister:
		if ev.group == nil {
			return nil, fmt.Errorf("coordinator: register record without payload")
		}
		if _, dup := c.groups[ev.group.ID]; dup {
			return nil, fmt.Errorf("coordinator: group %q already registered", ev.group.ID)
		}
	case jUnregister, jEvict, jPark, jRevive:
		for _, gid := range ev.Groups {
			if _, ok := c.groups[gid]; !ok {
				return nil, fmt.Errorf("coordinator: %s record for unknown group %q", ev.Kind, gid)
			}
		}
	case jCapacity:
		if err = c.opts.Net.SetCapacity(ev.Host, ev.Egress, ev.Ingress); err != nil {
			return nil, fmt.Errorf("coordinator: %w", err)
		}
	case jJobQueued, jJobAdmitted, jJobDeparted:
		switch {
		case c.queue == nil:
			err = errQueueDisabled
		case ev.Kind == jJobQueued && ev.Job == nil:
			err = fmt.Errorf("coordinator: job-queued record without payload")
		case ev.Kind == jJobQueued:
			_, err = c.queue.Submit(ev.Owner, *ev.Job, ev.plan, ev.At)
		case ev.Kind == jJobAdmitted && ev.admitted == nil:
			ev.admitted, err = c.queue.ForceAdmit(ev.JobID, ev.Hosts, ev.At)
		}
		if err != nil {
			return nil, err
		}
	case jFlow, jResched, jTick:
	default:
		return nil, fmt.Errorf("coordinator: unknown journal record kind %q", ev.Kind)
	}

	before := c.lastAdvance
	c.advanceToLocked(ev.At)

	// The mutation, and the pass it implies: full, a delta pass confined to
	// some groups, or none.
	record, full := true, false
	var delta []string
	var errs []error
	switch ev.Kind {
	case jRegister:
		_ = c.addGroupLocked(ev.Owner, ev.group) // not a duplicate: refused above
	case jUnregister, jEvict:
		for _, gid := range ev.Groups {
			c.removeGroupLocked(gid)
		}
		full, delta = ev.Kind == jEvict, ev.Groups
	case jFlow:
		// Only what applied is recorded; a frame in which nothing did still
		// pins the advance, so replay integrates the steps the live model did.
		ev.Flows, errs = c.applyFrameLocked(ev.Flows, ev.At)
		record = len(ev.Flows) > 0 || c.lastAdvance != before
		if !ev.Defer && len(ev.Flows) > 0 {
			delta = frameGroups(ev.Flows)
		} // else the batch's resched record carries the pass
	case jResched:
		delta = ev.Groups
	case jPark, jRevive:
		for _, gid := range ev.Groups {
			g := c.groups[gid]
			if g.parked = ev.Kind == jPark; g.parked {
				for _, f := range g.flows {
					f.rate = 0 // parked flows make no fluid progress
				}
			}
		}
		full = true
	case jCapacity, jTick:
		full = true
	case jJobQueued:
		c.jtel.submitted.Inc()
		if c.eventsOn() {
			c.event(telemetry.Event{Kind: telemetry.EventJobQueued, At: float64(ev.At),
				Agent: ev.Owner, Detail: fmt.Sprintf("job %s (%s, %d workers, est %v)",
					ev.Job.ID, ev.Job.Paradigm, ev.Job.Workers, c.queue.Job(ev.Job.ID).Est)})
		}
	case jJobAdmitted:
		if err = c.installJobLocked(ev.admitted, ev.At); err != nil {
			return nil, err
		}
	case jJobDeparted:
		c.finishJobLocked(ev.JobID, ev.Groups, ev.At)
		delta = ev.Groups // none for an admission-time rejection
	}
	c.jobGaugesLocked()
	var pass *plannedPass
	if full {
		pass = c.planLocked(ev, nil)
	} else if len(delta) > 0 {
		pass = c.planLocked(ev, delta)
	}
	if record {
		c.appendJournalLocked(*ev)
	}
	var rates map[string]unit.Rate
	if pass != nil {
		rates, err = c.publishLocked(pass)
	}
	if err != nil {
		errs = append(errs, err)
	}
	return rates, errors.Join(errs...) // nil when nothing was refused or failed
}

// applyJournalLocked replays one WAL record: decode it, bring it to the form
// the live side commits, and run the same transition. An individually
// inconsistent record is logged and skipped rather than aborting recovery.
func (c *Coordinator) applyJournalLocked(raw []byte) {
	ev, err := decodeRecord(raw)
	if err != nil {
		c.opts.Logf("coordinator: skipping corrupt journal record: %v", err)
		return
	}
	if ev.Register != nil {
		ev.group, err = ev.Register.Group()
	}
	if err == nil {
		_, err = c.commitLocked(&ev)
	}
	if err != nil {
		c.opts.Logf("coordinator: skipping journal record %s@%v: %v", ev.Kind, ev.At, err)
	}
}

// parkRestoredLocked quarantines every recovered group until its agent
// redials: a crash severed all sessions, so no owner is live. With a
// quarantine window configured the usual eviction timers are armed; with
// QuarantineTimeout zero (which normally means evict-on-death) recovered
// groups instead wait indefinitely — evicting everything a moment after
// recovering it would make recovery pointless.
func (c *Coordinator) parkRestoredLocked() int {
	parked := 0
	for gid, g := range c.groups {
		parked++
		g.parked = true
		g.parkGen++
		for _, f := range g.flows {
			f.rate = 0
		}
		if c.opts.QuarantineTimeout > 0 {
			gid, gen := gid, g.parkGen
			c.opts.Clock.AfterFunc(c.opts.QuarantineTimeout, func() { c.evictIfStillParked(gid, gen) })
		}
	}
	return parked
}

// replayLocked rebuilds the state a journal directory recorded: the snapshot,
// then every tail record through commitLocked with outputs suppressed.
func (c *Coordinator) replayLocked(rec *journal.Recovery) error {
	c.replaying = true
	defer func() { c.replaying = false }()
	if rec.Snapshot != nil {
		if err := c.applySnapshotLocked(rec.Snapshot); err != nil {
			return err
		}
		if c.delta != nil {
			// Rebuild the incremental scheduler's state from the restored rates
			// so the tail takes the delta-vs-full branches the live run took: a
			// cold first delta would fall back to a full pass and could differ
			// in flows the live pass held. Compaction only runs after a
			// published primary pass (never while dirty), so these rates are
			// the allocation that state was captured against.
			c.delta.Prime(c.buildSnapshotLocked(), c.opts.Net, c.currentRatesLocked())
		}
	}
	for _, raw := range rec.Tail {
		c.applyJournalLocked(raw)
	}
	if rec.Torn {
		c.opts.Logf("coordinator: journal had a torn final record (crash mid-append); dropped")
	}
	return nil
}

// Restore builds a Coordinator from a journal directory, replaying any
// prior state, and enables journaling for the new incarnation. An empty or
// missing directory is a fresh start: behavior is identical to New plus
// journaling. Individually inconsistent WAL records are logged and skipped
// rather than aborting recovery.
func Restore(opts Options, dir string) (*Coordinator, error) {
	rec, err := journal.Restore(dir)
	if err != nil {
		return nil, fmt.Errorf("coordinator: restore: %w", err)
	}
	c, err := New(opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.replayLocked(rec); err != nil {
		return nil, err
	}
	parked := c.parkRestoredLocked()

	j, err := journal.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("coordinator: restore: %w", err)
	}
	if opts.GroupCommit > 0 {
		if err := j.SetGroupCommit(opts.GroupCommit, opts.GroupCommitBytes); err != nil {
			j.Close()
			return nil, fmt.Errorf("coordinator: restore: %w", err)
		}
	}
	c.journal = j
	if rec.Snapshot == nil && len(rec.Tail) == 0 {
		// Fresh journal: record when this coordinator's clock started so a
		// future Restore reconstructs the same time base.
		c.appendJournalLocked(journalEvent{Kind: jGenesis, Wall: c.start.UnixNano()})
	} else {
		// Compact what was just replayed so the next crash recovers from
		// one snapshot instead of re-replaying history — unless a fallback
		// allocation is in force, which compaction waits out as live does.
		if c.compactableLocked() {
			c.snapshotLocked()
		}
		c.opts.Logf("coordinator: restored %d group(s) from %s (%d quarantined awaiting rejoin)",
			len(c.groups), dir, parked)
	}
	return c, nil
}
