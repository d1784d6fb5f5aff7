// Online job arrivals: the coordinator front-ends an internal/queue.Queue.
// Submissions arrive on the wire (submit_job), are throttled per tenant,
// validated, and queued; admission binds workers to hosts via the configured
// placement policy and registers the compiled groups. Every transition is a
// record committed through commitLocked (job-queued / job-admitted /
// job-departed), so Restore rebuilds the queue — pending jobs, admitted
// placements, sequence numbers — bit-for-bit alongside the flow state.
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

// submitThrottledLocked applies the per-tenant submission rate limit: a live
// decision, made before a submission becomes a record.
func (c *Coordinator) submitThrottledLocked(tenant string) bool {
	if c.opts.SubmitRate <= 0 {
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

var errQueueDisabled = errors.New("coordinator: job queue not configured")

// ErrThrottled marks a submission refused by the per-tenant rate limit.
var ErrThrottled = errors.New("coordinator: job submission rate exceeded")

// SubmitJob validates, throttles and enqueues a job submission, then runs an
// admission pass. The returned error, if any, carries a wire error code via
// *queue.RejectError or the sentinel errors above.
func (c *Coordinator) SubmitJob(owner string, spec wire.JobSpec) error {
	if c.queue == nil {
		return errQueueDisabled
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = owner
	}
	// The cheap refusals come first, so a throttled, full, invalid or
	// duplicate submission never pays for a compile. Compiling is pure and
	// the costliest step of a submission, so it runs between the two lock
	// holds and reaches the transition on the record, which makes every
	// refusal again against the state it commits to. A spec that does not
	// compile arrives without a plan and is refused there.
	c.mu.Lock()
	err := c.submitRefusalLocked(tenant, spec)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	plan, _ := queue.Compile(spec)
	c.mu.Lock()
	defer c.mu.Unlock()
	// A refused submission leaves no record and does not move the model.
	if _, err := c.commitLocked(&journalEvent{Kind: jJobQueued, At: c.clockLocked(), Owner: owner, Job: &spec, plan: plan}); err != nil {
		c.countRefusalLocked(err)
		return err
	}
	c.pushJobUpdateLocked(owner, wire.JobUpdate{JobID: spec.ID, Status: wire.JobQueued})
	c.admitJobsLocked()
	return nil
}

// submitRefusalLocked makes a submission's live refusals: the tenant's rate
// limit, then the queue's pre-compile refusals.
func (c *Coordinator) submitRefusalLocked(tenant string, spec wire.JobSpec) error {
	if c.submitThrottledLocked(tenant) {
		c.jtel.throttled.Inc()
		return fmt.Errorf("%w (tenant %q)", ErrThrottled, tenant)
	}
	err := c.queue.Refusal(spec)
	c.countRefusalLocked(err)
	return err
}

// countRefusalLocked counts a submission the queue refused for good.
func (c *Coordinator) countRefusalLocked(err error) {
	var rej *queue.RejectError
	if errors.As(err, &rej) {
		c.jtel.rejected.Inc()
	}
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

// admitJobsLocked is the admission decision: it drains the queue's
// admissible head, committing one job-admitted record per placement; an
// unplaceable head is rejected and the next job tried. It runs after every
// record that can free budget (submission, departure, a group's unregister or
// eviction), at that record's instant. Replay never decides: the journal
// carries the admissions that were made.
func (c *Coordinator) admitJobsLocked() {
	if c.queue == nil {
		return
	}
	now := c.lastAdvance
	// The placement view costs O(all flows + hosts); assemble it only for a
	// turn whose Next can use it.
	for c.queue.Ready() {
		a, err := c.queue.Next(c.jobViewLocked(), now)
		var rej *queue.RejectError
		if errors.As(err, &rej) {
			c.rejectJobLocked(rej, now)
			continue
		}
		if err != nil {
			c.opts.Logf("coordinator: admission: %v", err)
			return
		}
		if a == nil {
			break
		}
		id := a.Job.Spec.ID
		if _, err := c.commitLocked(&journalEvent{Kind: jJobAdmitted, At: now, JobID: id, Hosts: a.Hosts, admitted: a}); err != nil {
			// The placement was accepted but the compiled groups could not be
			// registered (should not happen: placement hosts come from the
			// fabric). Surface and drop the job.
			c.opts.Logf("coordinator: install job %s: %v", id, err)
			c.rejectJobLocked(&queue.RejectError{JobID: id, Owner: a.Job.Owner,
				Code: wire.ErrCodeBadJob, Reason: err.Error()}, now)
			continue
		}
		c.pushJobUpdateLocked(a.Job.Owner, wire.JobUpdate{JobID: id, Status: wire.JobAdmitted, Hosts: a.Hosts})
	}
}

// rejectJobLocked drops a job at admission time and reports it: a
// job-departed record with no groups.
func (c *Coordinator) rejectJobLocked(rej *queue.RejectError, now unit.Time) {
	// Never refused (the queue exists) and runs no pass: nothing to report.
	_, _ = c.commitLocked(&journalEvent{Kind: jJobDeparted, At: now, JobID: rej.JobID})
	if c.eventsOn() {
		c.event(telemetry.Event{Kind: telemetry.EventJobReject, At: float64(now),
			Agent: rej.Owner, Detail: fmt.Sprintf("job %s: %s", rej.JobID, rej.Reason)})
	}
	c.pushJobUpdateLocked(rej.Owner,
		wire.JobUpdate{JobID: rej.JobID, Status: wire.JobRejected, Reason: rej.Reason})
}

// installJobLocked is the job-admitted mutation: it instantiates the job's
// plan on the placement and registers its groups, undoing a partial
// registration on failure.
func (c *Coordinator) installJobLocked(a *queue.Admitted, now unit.Time) error {
	id := a.Job.Spec.ID
	groups, err := a.Groups()
	if err != nil {
		return err
	}
	for i, g := range groups {
		if err := c.addGroupLocked(a.Job.Owner, g); err != nil {
			for _, done := range groups[:i] {
				c.removeGroupLocked(done.ID) // the last one takes the job with it
			}
			return err
		}
		if c.jobGroups[id] == nil {
			c.jobGroups[id] = make(map[string]bool, len(groups))
		}
		c.jobGroups[id][g.ID] = true
		c.groupJob[g.ID] = id
		c.jobFlowsLeft[id] += len(g.Flows)
	}
	c.jtel.admitted.Inc()
	if c.opts.Metrics != nil {
		c.jtel.wait.Observe(float64(now - a.Job.Arrival))
	}
	if c.eventsOn() {
		c.event(telemetry.Event{Kind: telemetry.EventJobAdmit, At: float64(now),
			Agent: a.Job.Owner, Detail: fmt.Sprintf("job %s on %v after %v queued", id, a.Hosts, now-a.Job.Arrival)})
	}
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

// departJobLocked is the departure decision for a job whose last flow
// finished: close any open batch, commit the departure, notify the owner, and
// offer the freed budget to the queue.
func (c *Coordinator) departJobLocked(jobID string) {
	gids := make([]string, 0, len(c.jobGroups[jobID]))
	for gid := range c.jobGroups[jobID] {
		gids = append(gids, gid)
	}
	sort.Strings(gids)
	owner := c.jobOwnerLocked(jobID)
	if _, err := c.commitLocked(&journalEvent{Kind: jJobDeparted, At: c.instantLocked(), JobID: jobID, Groups: gids}); err != nil {
		c.opts.Logf("coordinator: reschedule after job %s departed: %v", jobID, err)
	}
	c.pushJobUpdateLocked(owner, wire.JobUpdate{JobID: jobID, Status: wire.JobDeparted})
	c.admitJobsLocked()
}

// finishJobLocked is the job-departed mutation. With groups, a completed job
// leaves: its groups go (the last taking the job's indexes with it) and its
// tardiness is recorded against the placement policy. With none it is an
// admission-time rejection: the job leaves the queue having registered
// nothing.
func (c *Coordinator) finishJobLocked(jobID string, gids []string, now unit.Time) {
	owner := c.jobOwnerLocked(jobID)
	c.queue.Depart(jobID)
	if len(gids) == 0 {
		c.jtel.rejected.Inc()
		return
	}
	var tard float64
	for _, gid := range gids {
		if g := c.groups[gid]; g != nil {
			tard += g.state.Group.EffectiveWeight() * float64(g.state.AchievedTardiness)
		}
		c.removeGroupLocked(gid)
	}
	c.jtel.departed.Inc()
	if c.opts.Metrics != nil {
		placer, _ := c.queue.Policy()
		c.opts.Metrics.Histogram(MetricJobTardiness,
			"Weighted tardiness of a departed job, labeled by placement policy.",
			"policy", placer).Observe(tard)
	}
	if c.eventsOn() {
		c.event(telemetry.Event{Kind: telemetry.EventJobDepart, At: float64(now),
			Agent: owner, Tardiness: tard, Detail: fmt.Sprintf("job %s (%d groups)", jobID, len(gids))})
	}
}

// removeGroupLocked is a group leaving, by any record: its runtime state,
// gauges and job membership go. Unfinished flows of a
// job's group stop counting toward the job's completion, and when the group
// was the job's last the job leaves the admitted set with it — silently: the
// record that removed the group already implies it.
func (c *Coordinator) removeGroupLocked(gid string) {
	if jobID, owned := c.groupJob[gid]; owned {
		delete(c.groupJob, gid)
		if g := c.groups[gid]; g != nil {
			for _, f := range g.flows {
				if !f.finished {
					c.jobFlowsLeft[jobID]--
				}
			}
		}
		set := c.jobGroups[jobID]
		delete(set, gid)
		if len(set) == 0 {
			delete(c.jobGroups, jobID)
			delete(c.jobFlowsLeft, jobID)
			c.queue.Depart(jobID)
		}
	}
	delete(c.groups, gid)
	c.cache.InvalidateGroup(gid) // deprecated handle: counts only
	c.dropGroupMetricsLocked(gid)
}

// jobOwnerLocked resolves a job's submitting session name, "" if unknown.
func (c *Coordinator) jobOwnerLocked(jobID string) string {
	if j := c.queue.Job(jobID); j != nil {
		return j.Owner
	}
	return ""
}

// pushJobUpdateLocked notifies the submitting session of a job transition,
// after its record is committed (only the live deciders call it). A
// disconnected owner just misses the update — job state is queryable on
// reconnect via the admin surface, and the journal has the full history.
func (c *Coordinator) pushJobUpdateLocked(owner string, u wire.JobUpdate) {
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
