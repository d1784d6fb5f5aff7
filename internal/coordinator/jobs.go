// Online job arrivals: the coordinator front-ends an internal/queue.Queue.
// Submissions arrive on the wire (submit_job), are throttled per tenant,
// validated, and queued; admission binds workers to hosts via the configured
// placement policy and registers the compiled groups. Every transition is
// journaled (job-queued / job-admitted / job-departed records), so Restore
// rebuilds the queue — pending jobs, admitted placements, sequence numbers —
// bit-for-bit alongside the flow state.
package coordinator

import (
	"errors"
	"fmt"
	"sort"

	"echelonflow/internal/queue"
	"echelonflow/internal/ratelimit"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// Job-pipeline metric families (registered only when Options.Queue is set).
const (
	MetricQueueDepth    = "echelon_queue_depth"
	MetricJobsRunning   = "echelon_jobs_running"
	MetricJobsSubmitted = "echelon_jobs_submitted_total"
	MetricJobsAdmitted  = "echelon_jobs_admitted_total"
	MetricJobsRejected  = "echelon_jobs_rejected_total"
	MetricJobsDeparted  = "echelon_jobs_departed_total"
	MetricJobsThrottled = "echelon_jobs_throttled_total"
	MetricQueueWait     = "echelon_queue_wait_seconds"
	MetricJobTardiness  = "echelon_job_tardiness_seconds"
)

// jobTelemetry bundles the queue pipeline's cached instrument handles.
type jobTelemetry struct {
	depth     *telemetry.Gauge
	running   *telemetry.Gauge
	submitted *telemetry.Counter
	admitted  *telemetry.Counter
	rejected  *telemetry.Counter
	departed  *telemetry.Counter
	throttled *telemetry.Counter
	wait      *telemetry.Histogram
}

func (c *Coordinator) initJobTelemetry() {
	m := c.opts.Metrics
	c.jtel = jobTelemetry{
		depth:     m.Gauge(MetricQueueDepth, "Jobs queued awaiting admission."),
		running:   m.Gauge(MetricJobsRunning, "Jobs admitted and not yet departed."),
		submitted: m.Counter(MetricJobsSubmitted, "Job submissions accepted into the queue."),
		admitted:  m.Counter(MetricJobsAdmitted, "Jobs placed and registered."),
		rejected:  m.Counter(MetricJobsRejected, "Job submissions or admissions refused."),
		departed:  m.Counter(MetricJobsDeparted, "Admitted jobs that ran to completion."),
		throttled: m.Counter(MetricJobsThrottled, "Job submissions refused by the per-tenant rate limit."),
		wait:      m.Histogram(MetricQueueWait, "Queueing delay from submission to admission."),
	}
	c.jtel.depth.Set(0)
	c.jtel.running.Set(0)
}

// jobGaugesLocked refreshes the queue depth/occupancy gauges.
func (c *Coordinator) jobGaugesLocked() {
	if c.queue == nil || c.opts.Metrics == nil {
		return
	}
	c.jtel.depth.Set(float64(c.queue.Depth()))
	c.jtel.running.Set(float64(c.queue.Running()))
}

// submitThrottledLocked applies the per-tenant submission rate limit. Replay
// never throttles: journaled submissions were accepted by the live run.
func (c *Coordinator) submitThrottledLocked(tenant string) bool {
	if c.opts.SubmitRate <= 0 || c.replaying {
		return false
	}
	b := c.submitLimiters[tenant]
	if b == nil {
		burst := c.opts.SubmitBurst
		if burst <= 0 {
			burst = 1
		}
		var err error
		if b, err = ratelimit.NewBucket(c.opts.SubmitRate, burst); err != nil {
			c.opts.Logf("coordinator: submit limiter: %v", err)
			return false
		}
		c.submitLimiters[tenant] = b
	}
	return !b.Allow(1)
}

// SubmitJob validates, throttles and enqueues a job submission, then runs an
// admission pass. The returned error, if any, carries a wire error code via
// *queue.RejectError or the sentinel errors below.
var errQueueDisabled = errors.New("coordinator: job queue not configured")

// ErrThrottled marks a submission refused by the per-tenant rate limit.
var ErrThrottled = errors.New("coordinator: job submission rate exceeded")

func (c *Coordinator) SubmitJob(owner string, spec wire.JobSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitJobLocked(owner, spec)
}

func (c *Coordinator) submitJobLocked(owner string, spec wire.JobSpec) error {
	if c.queue == nil {
		return errQueueDisabled
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = owner
	}
	if c.submitThrottledLocked(tenant) {
		c.jtel.throttled.Inc()
		return fmt.Errorf("%w (tenant %q)", ErrThrottled, tenant)
	}
	// One clock reading; the model moves to it only once the submission is
	// accepted, because a refused one leaves no record for replay to advance at.
	now := max(c.now(), c.lastAdvance)
	j, err := c.queue.Submit(owner, spec, now)
	if err != nil {
		var rej *queue.RejectError
		if errors.As(err, &rej) {
			c.jtel.rejected.Inc()
		}
		return err
	}
	c.advanceToLocked(now)
	c.appendJournalLocked(journalEvent{Kind: jJobQueued, At: now, Owner: owner, Job: &spec})
	c.jtel.submitted.Inc()
	c.jobGaugesLocked()
	c.event(telemetry.Event{Kind: telemetry.EventJobQueued, At: float64(now),
		Agent: owner, Detail: fmt.Sprintf("job %s (%s, %d workers, est %v)",
			spec.ID, spec.Paradigm, spec.Workers, j.Est)})
	c.pushJobUpdateLocked(owner, wire.JobUpdate{JobID: spec.ID, Status: wire.JobQueued})
	c.admitJobsLocked()
	return nil
}

// jobViewLocked assembles the placement policies' cluster view from live
// flow state: per-host remaining volume of every unfinished flow, plus
// admitted worker counts. Iteration is in sorted group order so view
// assembly (and thus placement) is deterministic.
func (c *Coordinator) jobViewLocked() *queue.View {
	v := queue.NewView(c.opts.Net)
	gids := make([]string, 0, len(c.groups))
	for gid := range c.groups {
		gids = append(gids, gid)
	}
	sort.Strings(gids)
	for _, gid := range gids {
		g := c.groups[gid]
		for _, member := range g.state.Group.Flows {
			f := g.flows[member.ID]
			if f.finished {
				continue
			}
			v.Egress[f.flow.Src] += f.remaining
			v.Ingress[f.flow.Dst] += f.remaining
		}
	}
	for _, a := range c.queue.AdmittedList() {
		for _, h := range a.Hosts {
			v.Workers[h]++
		}
	}
	return v
}

// admitJobsLocked drains the queue's admissible head: each admission is
// placed, compiled, registered and journaled; an unplaceable head is
// rejected and the next job tried. Runs after every submission and
// departure, at the instant (lastAdvance) of the record that triggered it;
// never during replay (the journal carries the recorded decisions).
func (c *Coordinator) admitJobsLocked() {
	if c.queue == nil || c.replaying {
		return
	}
	now := c.lastAdvance
	// The placement view costs O(all flows + hosts); assemble it only for a
	// turn whose Next can use it.
	for c.queue.Ready() {
		a, err := c.queue.Next(c.jobViewLocked(), now)
		if err != nil {
			var rej *queue.RejectError
			if errors.As(err, &rej) {
				c.rejectJobLocked(rej, now)
				continue
			}
			c.opts.Logf("coordinator: admission: %v", err)
			return
		}
		if a == nil {
			break
		}
		if err := c.installJobLocked(a, now); err != nil {
			// The placement was accepted but the compiled groups could not be
			// registered (should not happen: placement hosts come from the
			// fabric). Surface and drop the job.
			c.opts.Logf("coordinator: install job %s: %v", a.Job.Spec.ID, err)
			c.queue.Depart(a.Job.Spec.ID)
			c.rejectJobLocked(&queue.RejectError{JobID: a.Job.Spec.ID, Owner: a.Job.Owner,
				Code: wire.ErrCodeBadJob, Reason: err.Error()}, now)
		}
	}
	c.jobGaugesLocked()
}

// rejectJobLocked journals and reports a dropped job. The job-departed
// record with no groups replays as "remove from queue, no reschedule".
func (c *Coordinator) rejectJobLocked(rej *queue.RejectError, now unit.Time) {
	c.appendJournalLocked(journalEvent{Kind: jJobDeparted, At: now, JobID: rej.JobID})
	c.jtel.rejected.Inc()
	c.jobGaugesLocked()
	c.event(telemetry.Event{Kind: telemetry.EventJobReject, At: float64(now),
		Agent: rej.Owner, Detail: fmt.Sprintf("job %s: %s", rej.JobID, rej.Reason)})
	c.pushJobUpdateLocked(rej.Owner,
		wire.JobUpdate{JobID: rej.JobID, Status: wire.JobRejected, Reason: rej.Reason})
}

// installJobLocked registers an admission's compiled groups and journals the
// placement. Shared between live admission and journal replay (which arrives
// here via ForceAdmit with the recorded hosts).
func (c *Coordinator) installJobLocked(a *queue.Admitted, now unit.Time) error {
	w, err := queue.Build(a.Job.Spec, a.Hosts)
	if err != nil {
		return err
	}
	groups, err := queue.Groups(w, a.Job.Spec.Weight)
	if err != nil {
		return err
	}
	for i, g := range groups {
		if err := c.addGroupLocked(a.Job.Owner, g); err != nil {
			// Roll back the partial registration so state matches the journal
			// (which will carry no admitted record for this job).
			for _, done := range groups[:i] {
				delete(c.groups, done.ID)
				delete(c.groupJob, done.ID)
				c.cache.InvalidateGroup(done.ID)
				c.dropGroupMetricsLocked(done.ID)
			}
			delete(c.jobGroups, a.Job.Spec.ID)
			delete(c.jobFlowsLeft, a.Job.Spec.ID)
			return err
		}
		if c.jobGroups[a.Job.Spec.ID] == nil {
			c.jobGroups[a.Job.Spec.ID] = make(map[string]bool, len(groups))
		}
		c.jobGroups[a.Job.Spec.ID][g.ID] = true
		c.groupJob[g.ID] = a.Job.Spec.ID
		c.jobFlowsLeft[a.Job.Spec.ID] += len(g.Flows)
	}
	c.appendJournalLocked(journalEvent{Kind: jJobAdmitted, At: now,
		JobID: a.Job.Spec.ID, Hosts: a.Hosts})
	c.jtel.admitted.Inc()
	if c.opts.Metrics != nil {
		c.jtel.wait.Observe(float64(now - a.Job.Arrival))
	}
	c.jobGaugesLocked()
	c.event(telemetry.Event{Kind: telemetry.EventJobAdmit, At: float64(now),
		Agent: a.Job.Owner, Detail: fmt.Sprintf("job %s on %v after %v queued",
			a.Job.Spec.ID, a.Hosts, now-a.Job.Arrival)})
	c.pushJobUpdateLocked(a.Job.Owner,
		wire.JobUpdate{JobID: a.Job.Spec.ID, Status: wire.JobAdmitted, Hosts: a.Hosts})
	return nil
}

// submitErrCode maps a submission error to its wire error code.
func submitErrCode(err error) string {
	var rej *queue.RejectError
	switch {
	case errors.As(err, &rej):
		return rej.Code
	case errors.Is(err, queue.ErrQueueFull):
		return wire.ErrCodeQueueFull
	case errors.Is(err, ErrThrottled):
		return wire.ErrCodeThrottled
	default:
		return ""
	}
}

// departJobLocked is the live departure path: flush any open batch, journal
// the departure, remove the job, and re-run admission on the freed budget.
func (c *Coordinator) departJobLocked(jobID string) {
	c.flushCoalescedLocked()
	c.advanceLocked()
	now := c.lastAdvance
	gids := make([]string, 0, len(c.jobGroups[jobID]))
	for gid := range c.jobGroups[jobID] {
		gids = append(gids, gid)
	}
	sort.Strings(gids)
	c.appendJournalLocked(journalEvent{Kind: jJobDeparted, At: now, JobID: jobID, Groups: gids})
	c.finishJobLocked(jobID, gids, now)
	c.admitJobsLocked()
}

// finishJobLocked removes a completed job's groups and queue entry,
// reschedules, and records its tardiness against the placement policy. It
// is the shared tail of the live departure and the job-departed replay.
func (c *Coordinator) finishJobLocked(jobID string, gids []string, now unit.Time) {
	var tard float64
	owner := c.jobOwnerLocked(jobID)
	for _, gid := range gids {
		if g := c.groups[gid]; g != nil {
			tard += g.state.Group.EffectiveWeight() * float64(g.state.AchievedTardiness)
			delete(c.groups, gid)
			c.cache.InvalidateGroup(gid)
			c.dropGroupMetricsLocked(gid)
		}
		delete(c.groupJob, gid)
	}
	delete(c.jobGroups, jobID)
	delete(c.jobFlowsLeft, jobID)
	c.queue.Depart(jobID)
	c.jtel.departed.Inc()
	if c.opts.Metrics != nil {
		placer, _ := c.queue.Policy()
		c.opts.Metrics.Histogram(MetricJobTardiness,
			"Weighted tardiness of a departed job, labeled by placement policy.",
			"policy", placer).Observe(tard)
	}
	c.jobGaugesLocked()
	c.event(telemetry.Event{Kind: telemetry.EventJobDepart, At: float64(now),
		Agent: owner, Tardiness: tard, Detail: fmt.Sprintf("job %s (%d groups)", jobID, len(gids))})
	if len(gids) > 0 {
		if _, err := c.rescheduleDeltaLocked(gids); err != nil {
			c.opts.Logf("coordinator: reschedule after job %s departed: %v", jobID, err)
		}
	}
	c.pushJobUpdateLocked(owner, wire.JobUpdate{JobID: jobID, Status: wire.JobDeparted})
}

// detachGroupFromJobLocked dissolves a group's job membership when the group
// leaves through a non-job path (unregister, eviction). When the job's last
// group goes, the job leaves the admitted set silently — the record that
// removed the group already implies it, so replay stays aligned without a
// separate job-departed record.
func (c *Coordinator) detachGroupFromJobLocked(gid string) {
	jobID, ok := c.groupJob[gid]
	if !ok {
		return
	}
	delete(c.groupJob, gid)
	if set := c.jobGroups[jobID]; set != nil {
		// Unfinished flows of the departing group no longer count toward the
		// job's completion.
		if g := c.groups[gid]; g != nil {
			for _, f := range g.flows {
				if !f.finished {
					c.jobFlowsLeft[jobID]--
				}
			}
		}
		delete(set, gid)
		if len(set) == 0 {
			delete(c.jobGroups, jobID)
			delete(c.jobFlowsLeft, jobID)
			if c.queue != nil {
				c.queue.Depart(jobID)
				c.jobGaugesLocked()
			}
		}
	}
}

// jobOwnerLocked resolves a job's submitting session name, "" if unknown.
func (c *Coordinator) jobOwnerLocked(jobID string) string {
	if c.queue == nil {
		return ""
	}
	if j := c.queue.Job(jobID); j != nil {
		return j.Owner
	}
	return ""
}

// pushJobUpdateLocked notifies the submitting session of a job transition.
// A disconnected owner just misses the update — job state is queryable on
// reconnect via the admin surface, and the journal has the full history.
func (c *Coordinator) pushJobUpdateLocked(owner string, u wire.JobUpdate) {
	if owner == "" || c.replaying {
		return
	}
	s := c.byName[owner]
	if s == nil {
		return
	}
	if err := s.send(wire.Message{Type: wire.TypeJobUpdate, JobUpdate: &u}); err != nil {
		if errors.Is(err, errSendBufferFull) {
			// Job updates are lifecycle notifications, not convergent state:
			// they cannot be conflated, and an owner that missed one has
			// diverged (a submitter waiting on JobDeparted would wait
			// forever). Tear the session down so the agent resyncs.
			c.sendOverflowLocked(s)
		}
		c.opts.Logf("coordinator: job update to %s failed: %v", owner, err)
	}
}

// QueueDepth reports pending and admitted job counts (0, 0 with no queue).
func (c *Coordinator) QueueDepth() (pending, running int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queue == nil {
		return 0, 0
	}
	return c.queue.Depth(), c.queue.Running()
}

// JobStatus reports a job's current state: "queued", "admitted" (with its
// placement), or ok=false for jobs the coordinator no longer holds.
func (c *Coordinator) JobStatus(jobID string) (status string, hosts []string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queue == nil {
		return "", nil, false
	}
	if a := c.queue.AdmittedJob(jobID); a != nil {
		return wire.JobAdmitted, append([]string(nil), a.Hosts...), true
	}
	if j := c.queue.Job(jobID); j != nil {
		return wire.JobQueued, nil, true
	}
	return "", nil, false
}
