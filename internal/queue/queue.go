package queue

import (
	"errors"
	"fmt"
	"sort"

	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// ErrQueueFull is returned by Submit when the pending queue is at capacity.
var ErrQueueFull = errors.New("queue: full")

// RejectError reports a job the queue refused (invalid spec at submit,
// unsatisfiable placement at admit). Code is the wire error code to send
// the submitter; Owner names the submitting session when known.
type RejectError struct {
	JobID  string
	Owner  string
	Code   string
	Reason string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("queue: job %q rejected (%s): %s", e.JobID, e.Code, e.Reason)
}

// Options configures a Queue. Zero limits mean unlimited.
type Options struct {
	Placer    Placer
	Order     Order
	Estimator Estimator

	// MaxQueued caps pending submissions (Submit fails with ErrQueueFull
	// beyond it). MaxJobs caps concurrently admitted jobs. MaxShare caps the
	// summed predicted bandwidth demand of admitted jobs as a fraction of
	// the fabric's total capacity (0 < MaxShare <= 1); 0 disables the
	// bandwidth budget.
	MaxQueued int
	MaxJobs   int
	MaxShare  float64
}

// Queue is the deterministic job-arrival state machine: pending submissions
// ordered for admission, plus the admitted set charged against the budget.
// It has no clock and no locks — the coordinator drives it under its own
// mutex with explicit times, journaling each transition so replay can
// reproduce the state bit-for-bit via ForceAdmit/Depart.
type Queue struct {
	opts     Options
	pending  []*Job
	admitted map[string]*Admitted
	seq      int
	demand   unit.Rate // summed Demand of admitted jobs
}

// New builds a Queue, defaulting to spread placement, FIFO admission and
// declared-duration estimates.
func New(opts Options) *Queue {
	if opts.Placer == nil {
		opts.Placer = Spread{}
	}
	if opts.Order == nil {
		opts.Order = FIFO{}
	}
	if opts.Estimator == nil {
		opts.Estimator = Declared{}
	}
	return &Queue{opts: opts, admitted: make(map[string]*Admitted)}
}

// Policy returns the queue's placement and admission policy names.
func (q *Queue) Policy() (placer, order string) {
	return q.opts.Placer.Name(), q.opts.Order.Name()
}

// Refusal reports the refusals Submit makes before compiling: ErrQueueFull,
// or a *RejectError for an invalid spec or a duplicate ID, in that order. A
// caller that compiles outside its own lock asks first, so a submission
// refused for any of these never pays for a compile.
func (q *Queue) Refusal(spec wire.JobSpec) error {
	if q.opts.MaxQueued > 0 && len(q.pending) >= q.opts.MaxQueued {
		return ErrQueueFull
	}
	if err := spec.Validate(); err != nil {
		return &RejectError{JobID: spec.ID, Code: wire.ErrCodeBadJob, Reason: err.Error()}
	}
	if q.Job(spec.ID) != nil {
		return &RejectError{JobID: spec.ID, Code: wire.ErrCodeBadJob, Reason: "duplicate job id"}
	}
	return nil
}

// Submit validates and enqueues a job. plan is Compile(spec), compiled ahead
// by a caller that can do so outside its own lock, or nil to compile here; a
// plan compiled from any other spec is ignored. It returns the queued Job, or
// ErrQueueFull / a *RejectError (Refusal's, then an uncompilable spec) —
// distinguishing "try later" from "never".
func (q *Queue) Submit(owner string, spec wire.JobSpec, plan *Plan, now unit.Time) (*Job, error) {
	if err := q.Refusal(spec); err != nil {
		return nil, err
	}
	if plan == nil || plan.spec != spec {
		var err error
		if plan, err = Compile(spec); err != nil {
			return nil, &RejectError{JobID: spec.ID, Code: wire.ErrCodeBadJob, Reason: err.Error()}
		}
	}
	est, stable := q.opts.Estimator.Estimate(spec)
	j := &Job{Spec: spec, Owner: owner, Arrival: now, Seq: q.seq,
		Est: est, EstStable: stable, Bytes: plan.bytes, plan: plan}
	if run := est * unit.Time(spec.Iterations); run > 0 {
		j.Demand = unit.Rate(float64(j.Bytes) / float64(run))
	}
	q.seq++
	q.pending = append(q.pending, j)
	return j, nil
}

// head returns the next job in admission order, or nil. Admission is
// strictly head-of-line: a blocked head blocks everything behind it, which
// is what makes FIFO fairness (no overtaking under equal priority) an
// invariant rather than a tendency.
func (q *Queue) head() *Job {
	var best *Job
	for _, j := range q.pending {
		if best == nil || q.opts.Order.Less(j, best) {
			best = j
		}
	}
	return best
}

// Ready reports whether Next would consult a view: a job is pending and the
// job-count limit leaves room for it. Callers for whom assembling the view is
// expensive check it first; Next makes the same two checks itself.
func (q *Queue) Ready() bool {
	return len(q.pending) > 0 && (q.opts.MaxJobs <= 0 || len(q.admitted) < q.opts.MaxJobs)
}

// Next attempts one admission against the view. It returns:
//   - (*Admitted, nil): the head job was placed and admitted;
//   - (nil, nil): nothing pending, or the head is blocked by the budget —
//     retry after a departure;
//   - (nil, *RejectError): the head cannot be placed on this fabric at all
//     and was dropped from the queue — the caller reports it and calls Next
//     again for the job behind it.
//
// Callers loop until (nil, nil). Decisions are deterministic in (queue
// state, view, now); during journal replay the coordinator bypasses Next
// and applies the recorded outcomes via ForceAdmit/Depart.
func (q *Queue) Next(v *View, now unit.Time) (*Admitted, error) {
	if !q.Ready() {
		return nil, nil
	}
	j := q.head()
	// The bandwidth budget blocks jobs whose predicted demand overshoots the
	// fabric share — except when nothing is admitted, where blocking would
	// starve a job the budget alone can never fit.
	if q.opts.MaxShare > 0 && len(q.admitted) > 0 {
		budget := unit.Rate(q.opts.MaxShare) * v.TotalCapacity()
		if q.demand+j.Demand > budget {
			return nil, nil
		}
	}
	hosts, err := q.opts.Placer.Place(j.Spec, v)
	if err != nil {
		q.remove(j.Spec.ID)
		return nil, &RejectError{JobID: j.Spec.ID, Owner: j.Owner, Code: wire.ErrCodeBadJob, Reason: err.Error()}
	}
	return q.admit(j, hosts, now), nil
}

// ForceAdmit moves a pending job to the admitted set with the given
// placement, bypassing policy and budget — journal replay applying a
// recorded admission.
func (q *Queue) ForceAdmit(jobID string, hosts []string, at unit.Time) (*Admitted, error) {
	for _, j := range q.pending {
		if j.Spec.ID == jobID {
			return q.admit(j, hosts, at), nil
		}
	}
	return nil, fmt.Errorf("queue: ForceAdmit: job %q not pending", jobID)
}

func (q *Queue) admit(j *Job, hosts []string, at unit.Time) *Admitted {
	q.remove(j.Spec.ID)
	a := &Admitted{Job: j, Hosts: append([]string(nil), hosts...), AdmittedAt: at}
	q.admitted[j.Spec.ID] = a
	q.demand += j.Demand
	return a
}

// Depart removes a job wherever it is: an admitted job completing (or being
// evicted), or a pending job being rejected/withdrawn. It reports whether
// the job was found.
func (q *Queue) Depart(jobID string) bool {
	if a, ok := q.admitted[jobID]; ok {
		delete(q.admitted, jobID)
		q.demand -= a.Job.Demand
		if len(q.admitted) == 0 {
			q.demand = 0 // shed float residue between busy periods
		}
		return true
	}
	return q.remove(jobID)
}

func (q *Queue) remove(jobID string) bool {
	for i, j := range q.pending {
		if j.Spec.ID == jobID {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Job finds a job by ID in either set.
func (q *Queue) Job(id string) *Job {
	if a, ok := q.admitted[id]; ok {
		return a.Job
	}
	for _, j := range q.pending {
		if j.Spec.ID == id {
			return j
		}
	}
	return nil
}

// AdmittedJob returns the admitted record for a job, or nil.
func (q *Queue) AdmittedJob(id string) *Admitted { return q.admitted[id] }

// Depth returns the number of pending submissions.
func (q *Queue) Depth() int { return len(q.pending) }

// Running returns the number of admitted jobs.
func (q *Queue) Running() int { return len(q.admitted) }

// Demand returns the summed predicted bandwidth demand of admitted jobs.
func (q *Queue) Demand() unit.Rate { return q.demand }

// Pending returns the pending jobs in submission order (a copy).
func (q *Queue) Pending() []*Job {
	out := append([]*Job(nil), q.pending...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// AdmittedList returns admitted jobs in admission (sequence) order.
func (q *Queue) AdmittedList() []*Admitted {
	out := make([]*Admitted, 0, len(q.admitted))
	for _, a := range q.admitted {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job.Seq < out[j].Job.Seq })
	return out
}

// Restore resets the queue to a snapshotted state: the given pending and
// admitted jobs and the next submission sequence number. Job fields are
// taken as recorded — estimates are not recomputed, so a restored queue is
// bit-for-bit the snapshotted one.
func (q *Queue) Restore(pending []*Job, admitted []*Admitted, seq int) {
	q.pending = append([]*Job(nil), pending...)
	q.admitted = make(map[string]*Admitted, len(admitted))
	q.demand = 0
	for _, a := range admitted {
		q.admitted[a.Job.Spec.ID] = a
		q.demand += a.Job.Demand
	}
	q.seq = seq
}

// Seq returns the next submission sequence number (for snapshots).
func (q *Queue) Seq() int { return q.seq }
