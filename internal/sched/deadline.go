package sched

import (
	"sync"
	"time"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// DegradeOutcome reports what the most recent deadline-bounded call did, for
// telemetry and the degrade/re-convergence oracle.
type DegradeOutcome struct {
	// Degraded is true when the primary pass was not used: the fallback
	// allocation was returned (Schedule) or the patch was refused (Apply).
	Degraded bool
	// Reason names the degrade cause: "overrun" (budget exceeded), "busy"
	// (a previously abandoned pass still draining), "error" (primary
	// returned an error), "breaker-open" (cooling down after TripAfter
	// consecutive failures), "apply-gated" (incremental path disabled until
	// the next clean full pass).
	Reason string
	// Elapsed is how long the bounded call took to return (never much more
	// than the budget on the degrade paths).
	Elapsed time.Duration
	// BreakerOpen is true while the circuit breaker holds the scheduler in
	// fallback.
	BreakerOpen bool
}

// DegradeControl is the coordinator-facing handle on a Deadline wrapper,
// satisfied by both the plain and the delta-forwarding variant.
type DegradeControl interface {
	// Degraded reports whether the wrapper is currently in a degraded
	// regime: the last call fell back, or the breaker is open.
	Degraded() bool
	// LastDegrade returns the most recent outcome.
	LastDegrade() DegradeOutcome
	// SetStall injects an artificial latency into every primary pass — the
	// chaos hook behind the faults.SchedStall kind. Zero clears it.
	SetStall(d time.Duration)
	// Quiesce blocks until no abandoned primary pass is in flight. Callers
	// that mutate shared scheduling inputs (the fabric) must quiesce
	// first: an abandoned pass keeps reading the network after its call
	// returned.
	Quiesce()
	// Bypass, while on, runs every call synchronously on the primary with no
	// budget, breaker or stall — journal replay uses it so a slow replaying
	// machine cannot degrade where the recorded run did not (which would
	// silently break bit-for-bit recovery). Off restores bounded behavior.
	Bypass(on bool)
}

// DeadlineOptions configures WithDeadline.
type DeadlineOptions struct {
	// Budget is the per-call time budget for the primary scheduler. Zero or
	// negative disables wrapping (WithDeadline returns the inner scheduler).
	Budget time.Duration
	// TripAfter opens the circuit breaker after this many consecutive
	// overruns/errors (default 3).
	TripAfter int
	// Cooldown is how long the breaker stays open before probing the
	// primary again (default 10x Budget).
	Cooldown time.Duration
	// Fallback computes the degraded allocation (default Fair{} max-min).
	// It runs synchronously and must be cheap and always feasible.
	Fallback Scheduler
	// Observer, when set, is invoked after every bounded call with its
	// outcome. It runs on the caller's goroutine; keep it non-blocking.
	Observer func(DegradeOutcome)
}

// Deadline bounds every Schedule call of the wrapped scheduler with a time
// budget. The primary pass runs on a helper goroutine against a deep-copied
// snapshot; on overrun the call is abandoned (the goroutine drains in the
// background, serialized by a single slot) and the fallback allocation is
// returned instead. TripAfter consecutive failures open a circuit breaker
// that routes everything to the fallback for Cooldown, then probes recovery.
//
// Exactness caveats: fallback allocations are feasible but not tardiness-
// optimal, and after any degraded call the incremental (delta) path is gated
// off until a primary full pass completes in budget — an abandoned pass may
// finish late and rebuild the inner scheduler's delta state from a stale
// snapshot, so patches against it are not provably equivalent to a full
// reschedule. The slot also serializes primary passes: a fresh pass can
// never interleave with an abandoned one, so the late rebuild cannot
// overwrite a newer one.
type Deadline struct {
	inner     Scheduler
	fb        Scheduler
	budget    time.Duration
	tripAfter int
	cooldown  time.Duration
	observer  func(DegradeOutcome)

	// slot is a one-token semaphore held for the lifetime of each primary
	// pass, including after abandonment.
	slot chan struct{}

	mu        sync.Mutex
	fails     int       // consecutive overruns/errors
	openUntil time.Time // breaker open while clock is before this
	clean     bool      // last committed pass was a within-budget primary
	stall     time.Duration
	bypass    bool // run unbounded on the primary (journal replay)
	last      DegradeOutcome
}

// WithDeadline wraps inner with a per-call time budget and a max-min fair
// fallback. A non-positive budget returns inner unchanged. When inner also
// implements DeltaScheduler the returned wrapper forwards the incremental
// API (gated off while degraded), mirroring Instrument's conditional
// forwarding.
func WithDeadline(inner Scheduler, opts DeadlineOptions) Scheduler {
	if inner == nil || opts.Budget <= 0 {
		return inner
	}
	if opts.TripAfter <= 0 {
		opts.TripAfter = 3
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 10 * opts.Budget
	}
	if opts.Fallback == nil {
		opts.Fallback = Fair{}
	}
	d := &Deadline{
		inner:     inner,
		fb:        opts.Fallback,
		budget:    opts.Budget,
		tripAfter: opts.TripAfter,
		cooldown:  opts.Cooldown,
		observer:  opts.Observer,
		slot:      make(chan struct{}, 1),
	}
	if ds, ok := inner.(DeltaScheduler); ok {
		return &DeadlineDelta{Deadline: d, delta: ds}
	}
	return d
}

// Name implements Scheduler.
func (d *Deadline) Name() string { return d.inner.Name() + "+deadline" }

// PlanCache forwards the wrapped scheduler's cache so eager invalidation
// keeps working through the wrapper chain.
func (d *Deadline) PlanCache() *PlanCache {
	if pc, ok := d.inner.(interface{ PlanCache() *PlanCache }); ok {
		return pc.PlanCache()
	}
	return nil
}

// Degraded implements DegradeControl.
func (d *Deadline) Degraded() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last.Degraded || !d.openUntil.IsZero()
}

// LastDegrade implements DegradeControl.
func (d *Deadline) LastDegrade() DegradeOutcome {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// SetStall implements DegradeControl.
func (d *Deadline) SetStall(v time.Duration) {
	d.mu.Lock()
	if v < 0 {
		v = 0
	}
	d.stall = v
	d.mu.Unlock()
}

// Quiesce implements DegradeControl.
func (d *Deadline) Quiesce() {
	d.slot <- struct{}{}
	<-d.slot
}

// Bypass implements DegradeControl.
func (d *Deadline) Bypass(on bool) {
	d.mu.Lock()
	d.bypass = on
	d.mu.Unlock()
}

func (d *Deadline) bypassed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bypass
}

// Schedule implements Scheduler: the primary pass under budget, the fallback
// on overrun, error, contention or an open breaker.
func (d *Deadline) Schedule(snap *Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	t0 := time.Now()
	if d.bypassed() {
		// Unbounded replay mode: serialize against any abandoned pass, run
		// the primary synchronously, and commit it as a clean success.
		d.slot <- struct{}{}
		defer func() { <-d.slot }()
		rates, err := d.inner.Schedule(snap, net)
		if err == nil {
			d.noteSuccess(t0)
		}
		return rates, err
	}
	if !d.admit(t0) {
		return d.fallback(snap, net, "breaker-open", t0)
	}
	select {
	case d.slot <- struct{}{}:
	default:
		// An abandoned pass is still draining; starting another primary
		// would queue behind it past the budget anyway. Not counted toward
		// the breaker — it is a symptom of the overrun already counted.
		return d.fallback(snap, net, "busy", t0)
	}
	type result struct {
		rates map[string]unit.Rate
		err   error
	}
	done := make(chan result, 1)
	shadow := copySnapshot(snap)
	stall := d.stallFor()
	go func() {
		if stall > 0 {
			time.Sleep(stall)
		}
		rates, err := d.inner.Schedule(shadow, net)
		// Release before reporting: a caller with the result in hand may
		// start its next pass at once and must find the slot free.
		<-d.slot
		done <- result{rates, err}
	}()
	timer := time.NewTimer(d.budget)
	defer timer.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			d.noteFailure(time.Now())
			return d.fallback(snap, net, "error", t0)
		}
		d.noteSuccess(t0)
		return r.rates, nil
	case <-timer.C:
		d.noteFailure(time.Now())
		return d.fallback(snap, net, "overrun", t0)
	}
}

// admit reports whether the primary may run: breaker closed, or open long
// enough that this call probes recovery.
func (d *Deadline) admit(now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.openUntil.IsZero() || !now.Before(d.openUntil)
}

// noteSuccess closes the breaker and marks the committed state clean.
func (d *Deadline) noteSuccess(t0 time.Time) {
	out := DegradeOutcome{Elapsed: time.Since(t0)}
	d.mu.Lock()
	d.fails = 0
	d.openUntil = time.Time{}
	d.clean = true
	d.last = out
	obs := d.observer
	d.mu.Unlock()
	if obs != nil {
		obs(out)
	}
}

// noteFailure counts a consecutive overrun/error, gates the delta path, and
// trips the breaker at the threshold (re-arming it on a failed probe).
func (d *Deadline) noteFailure(now time.Time) {
	d.mu.Lock()
	d.fails++
	d.clean = false
	if d.fails >= d.tripAfter {
		d.openUntil = now.Add(d.cooldown)
	}
	d.mu.Unlock()
}

// fallback computes the degraded allocation and records the outcome.
func (d *Deadline) fallback(snap *Snapshot, net fabric.Fabric, reason string, t0 time.Time) (map[string]unit.Rate, error) {
	rates, err := d.fb.Schedule(snap, net)
	out := DegradeOutcome{Degraded: true, Reason: reason, Elapsed: time.Since(t0)}
	d.mu.Lock()
	d.clean = false
	out.BreakerOpen = !d.openUntil.IsZero()
	d.last = out
	obs := d.observer
	d.mu.Unlock()
	if obs != nil {
		obs(out)
	}
	return rates, err
}

func (d *Deadline) stallFor() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stall
}

// DeadlineDelta is a Deadline whose wrapped scheduler also implements
// DeltaScheduler. Apply forwards under the same budget and slot; while the
// wrapper is not clean (a degraded pass committed last, or an abandoned pass
// may still rebuild stale delta state) Apply refuses with ok=false so the
// coordinator takes the full Schedule path, which self-heals.
type DeadlineDelta struct {
	*Deadline
	delta DeltaScheduler
}

// Apply implements DeltaScheduler.
func (d *DeadlineDelta) Apply(snap *Snapshot, net fabric.Fabric, delta Delta) (map[string]unit.Rate, bool, error) {
	t0 := time.Now()
	if d.bypassed() {
		d.slot <- struct{}{}
		defer func() { <-d.slot }()
		rates, ok, err := d.delta.Apply(snap, net, delta)
		if err == nil && ok {
			d.noteSuccess(t0)
		}
		return rates, ok, err
	}
	d.mu.Lock()
	gated := !d.clean || !d.openUntil.IsZero()
	d.mu.Unlock()
	if gated {
		d.record(DegradeOutcome{Degraded: true, Reason: "apply-gated", Elapsed: time.Since(t0)})
		return nil, false, nil
	}
	select {
	case d.slot <- struct{}{}:
	default:
		d.record(DegradeOutcome{Degraded: true, Reason: "busy", Elapsed: time.Since(t0)})
		return nil, false, nil
	}
	type result struct {
		rates map[string]unit.Rate
		ok    bool
		err   error
	}
	done := make(chan result, 1)
	shadow := copySnapshot(snap)
	stall := d.stallFor()
	go func() {
		if stall > 0 {
			time.Sleep(stall)
		}
		rates, ok, err := d.delta.Apply(shadow, net, delta)
		<-d.slot // before reporting, as in Schedule
		done <- result{rates, ok, err}
	}()
	timer := time.NewTimer(d.budget)
	defer timer.Stop()
	select {
	case r := <-done:
		if r.err != nil {
			d.noteFailure(time.Now())
			d.record(DegradeOutcome{Degraded: true, Reason: "error", Elapsed: time.Since(t0)})
			return nil, false, r.err
		}
		if r.ok {
			d.noteSuccess(t0)
		}
		// ok=false without error is the inner scheduler's ordinary full-pass
		// fallback (cold state, drift, ...), not a degrade: the caller's
		// Schedule retry is itself budget-bounded.
		return r.rates, r.ok, nil
	case <-timer.C:
		// Abandon: the draining goroutine may rebuild inner delta state from
		// the stale shadow; noteFailure clears clean so the next Apply is
		// gated until a fresh full pass recaptures it.
		d.noteFailure(time.Now())
		d.record(DegradeOutcome{Degraded: true, Reason: "overrun", Elapsed: time.Since(t0)})
		return nil, false, nil
	}
}

// Prime implements DeltaScheduler. It forwards only when no pass is in
// flight; a primed state is clean by construction.
func (d *DeadlineDelta) Prime(snap *Snapshot, net fabric.Fabric, rates map[string]unit.Rate) {
	select {
	case d.slot <- struct{}{}:
	default:
		return
	}
	defer func() { <-d.slot }()
	d.delta.Prime(snap, net, rates)
	d.mu.Lock()
	d.clean = true
	d.mu.Unlock()
}

// record stores an outcome and notifies the observer.
func (d *Deadline) record(out DegradeOutcome) {
	d.mu.Lock()
	out.BreakerOpen = !d.openUntil.IsZero()
	d.last = out
	obs := d.observer
	d.mu.Unlock()
	if obs != nil {
		obs(out)
	}
}

// copySnapshot deep-copies the mutable layers of a snapshot (FlowState and
// GroupState values) while sharing the immutable core flow/group objects, so
// an abandoned pass can keep reading it after the coordinator, back under
// its own lock, mutates the originals.
func copySnapshot(snap *Snapshot) *Snapshot {
	out := &Snapshot{
		Now:    snap.Now,
		Flows:  make([]*FlowState, len(snap.Flows)),
		Groups: make(map[string]*GroupState, len(snap.Groups)),
	}
	for i, fs := range snap.Flows {
		c := *fs
		out.Flows[i] = &c
	}
	for id, gs := range snap.Groups {
		c := *gs
		out.Groups[id] = &c
	}
	return out
}
