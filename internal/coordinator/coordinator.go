// Package coordinator implements the central EchelonFlow scheduler of the
// paper's system sketch (Fig. 7, §5): it receives EchelonFlow registrations
// and flow lifecycle events from Agents, reruns the scheduling heuristic on
// every arrival/departure (and optionally on a fixed interval), and pushes
// bandwidth allocations back.
//
// The Coordinator models flow progress fluidly — remaining volume decreases
// at the allocated rate between events — and treats Agent finish reports as
// ground truth, so modest model drift self-corrects at the next event.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/journal"
	"echelonflow/internal/queue"
	"echelonflow/internal/ratelimit"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// Options configures a Coordinator.
type Options struct {
	// Net is the capacity model of the cluster fabric. Required.
	Net fabric.Fabric
	// Scheduler defaults to EchelonMADD with backfill.
	Scheduler sched.Scheduler
	// Interval, when positive, also reschedules periodically while flows
	// are active (§5's per-scheduling-interval mode).
	Interval time.Duration
	// SessionTimeout drops an agent session that sends nothing (not even a
	// heartbeat) for this long; its groups are unregistered. Zero disables
	// the timeout.
	SessionTimeout time.Duration
	// QuarantineTimeout is how long a dead agent's groups stay parked —
	// excluded from scheduling but retaining their progress state —
	// awaiting a rejoin under the same agent name. Zero evicts immediately
	// on session death (the pre-quarantine behaviour).
	QuarantineTimeout time.Duration
	// SnapshotEvery, for a coordinator built with Restore, compacts the
	// journal into a snapshot after this many appended events. Zero keeps
	// the write-ahead log growing until the next restart.
	SnapshotEvery int
	// GroupCommit, when positive, batches journal fsyncs (group-commit):
	// appends buffer in the page cache and are synced when the batch reaches
	// GroupCommitBytes (journal.DefaultGroupCommitBytes if zero) or this
	// window elapses, so durability stops serializing admission at high
	// event rates. A crash may lose up to one window of the newest records —
	// recovery still yields an exact prefix of the acknowledged state. Zero
	// keeps the per-append fsync.
	GroupCommit      time.Duration
	GroupCommitBytes int
	// Coalesce, when positive, batches flow lifecycle events: a FlowEvent
	// is applied and journaled immediately but the reschedule is deferred
	// until this window elapses (or a non-coalescible event — capacity
	// change, unregister, park/revive, tick — forces a flush first). A
	// burst of finish reports then drains into one reschedule. The journal
	// records the batch boundary (a "resched" record listing the batch's
	// groups), so Restore replays the same batches bit-for-bit.
	Coalesce time.Duration
	// RedialRate, when positive, admission-limits reconnects per agent name
	// to this many per second (burst RedialBurst, default 1), so a flapping
	// agent redialing in a tight loop cannot starve connection handling.
	RedialRate  float64
	RedialBurst float64
	// Queue, when non-nil, enables the online job-arrival pipeline: agents
	// submit wire.JobSpecs, the queue's placement/admission policies bind and
	// gate them, and the coordinator registers the compiled groups itself.
	// The queue must be dedicated to this coordinator (it is driven under the
	// coordinator's lock and restored from its journal).
	Queue *queue.Queue
	// SubmitRate, when positive, rate-limits job submissions per tenant to
	// this many per second (burst SubmitBurst, default 1); excess submissions
	// are refused with a typed throttled error, not a dropped connection.
	SubmitRate  float64
	SubmitBurst float64
	// SchedDeadline, when positive, bounds every scheduling pass with this
	// time budget, measured on Clock: the pass stops at its next group
	// boundary once over budget (sched.Snapshot.Stop) and a max-min fair
	// fallback allocation is pushed instead, so a slow scheduler degrades the
	// allocation quality rather than stalling event handling. The outcome is
	// journaled, so Restore replays the fallback where live used it.
	// DeadlineTripAfter consecutive overruns/errors open a circuit breaker
	// that keeps the fallback in force for DeadlineCooldown before probing
	// recovery (defaults: 3 and 10x the budget).
	SchedDeadline     time.Duration
	DeadlineTripAfter int
	DeadlineCooldown  time.Duration
	// ShedHighWater, when positive, sheds job submissions with a typed
	// throttled wire error while more than this many inbound events (across
	// all sessions) are queued or in flight — existing work drains before
	// new jobs are admitted.
	ShedHighWater int
	// InboundQueue bounds each session's inbound event queue (default 256).
	// A full queue exerts TCP backpressure on that agent instead of growing
	// coordinator memory.
	InboundQueue int
	// SendBuffer bounds each session's outbound message queue (default 64).
	// Pushes are decoupled from the agent socket by a per-session writer, so
	// a stalled agent can never block the reschedule lock; overflowing the
	// buffer tears the session down (quarantine then holds its groups).
	SendBuffer int
	// WriteTimeout bounds each outbound frame write (default 10s). A socket
	// that cannot accept a frame within it is considered dead.
	WriteTimeout time.Duration
	// StragglerRTT, when positive, enables gray-failure detection: the
	// coordinator pings every session (every PingInterval, default 1s),
	// tracks a per-agent RTT EWMA, and soft-quarantines agents whose EWMA
	// exceeds this threshold — their groups stay scheduled, but their event
	// reports are deadline-bounded (batched into a coalescing window instead
	// of triggering immediate passes). Hysteresis releases at half the
	// threshold.
	StragglerRTT time.Duration
	PingInterval time.Duration
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
	// Logf receives diagnostic output; defaults to log.Printf.
	Logf func(format string, args ...interface{})
	// Metrics, when non-nil, receives runtime counters/gauges/histograms
	// (reschedule counts and latency, per-call scheduler latency and plan
	// cache counters, per-group tardiness, journal fsync latency, redial
	// admission outcomes). Nil disables all metric work.
	Metrics *telemetry.Registry
	// Events, when non-nil, receives structured flow-lifecycle events
	// (release/finish/resume, reschedule/allocation, park/revive/evict,
	// journal snapshot and slow fsync, redial accept/reject). Nil disables
	// event logging.
	Events *telemetry.EventLog
}

type flowRT struct {
	flow      *core.Flow
	released  bool
	finished  bool
	remaining unit.Bytes
	rate      unit.Rate
	release   unit.Time
}

type groupRT struct {
	state  *sched.GroupState
	flows  map[string]*flowRT
	owner  string
	refSet bool
	// parked marks a group whose owning session died: it keeps its state
	// but is excluded from scheduling until the owner rejoins or the
	// quarantine timeout evicts it. parkGen guards a pending eviction
	// timer against a park/rejoin/park cycle reusing the group; parkedAt
	// (per opts.Clock) is when the current park began, so eviction is
	// decided against the injected clock rather than the wall timer.
	parked   bool
	parkGen  int
	parkedAt time.Time
	// reg is the group's registration as compaction writes it, built on
	// the first snapshot that holds the group (a group never changes shape).
	reg *wire.Register
}

// Coordinator is the central scheduler. Create with New.
type Coordinator struct {
	opts  Options
	start time.Time

	mu          sync.Mutex
	groups      map[string]*groupRT
	sessions    map[*session]struct{}
	byName      map[string]*session
	lastAdvance unit.Time
	reschedules int
	ratesTotal  int // allocation entries computed
	ratesPushed int // allocation entries actually sent (after delta filtering)

	// cache is the scheduler's plan cache when it exposes one; lifecycle
	// events invalidate the affected groups eagerly. Nil-safe. cacheSeen is
	// its Stats as of the last exported scheduler call (guarded by mu).
	cache     *sched.PlanCache
	cacheSeen sched.CacheStats

	// delta is the scheduler's incremental path when it implements
	// sched.DeltaScheduler (resolved once in New). Nil means every
	// reschedule is a full Schedule.
	delta sched.DeltaScheduler

	// dirty is set by a pass that ran the max-min fair fallback and cleared
	// by the next primary full pass; while set, delta reschedules run full
	// and compaction waits. It is state: replay sets and clears it from the
	// records' fallback field. strikes and breakerUntil are the deadline
	// budget's circuit breaker, live-only (a restored incarnation starts
	// closed). All three are guarded by mu.
	dirty        bool
	strikes      int
	breakerUntil time.Time

	// inboundDepth counts events received from agent sockets but not yet
	// fully handled, across all sessions — the backlog the shed high-water
	// mark is compared against. fsyncStall is the injected journal-append
	// latency (nanos) behind the faults.FsyncStall chaos hook.
	inboundDepth atomic.Int64
	fsyncStall   atomic.Int64
	// schedStall is the injected scheduling time (nanos) behind the
	// faults.SchedStall chaos hook, added to every budgeted pass's elapsed.
	schedStall atomic.Int64

	// pingNonce numbers coordinator-initiated RTT pings (under mu).
	pingNonce uint64

	// pending accumulates the group IDs touched by coalesced flow events
	// awaiting one batched reschedule; nil means no batch is open.
	// pendingGen invalidates a stale drain timer after an early flush.
	pending    map[string]bool
	pendingGen int

	// journal, when set (via Restore), receives an append for every
	// state-mutating event; journalEvents counts the events journaled since
	// the last snapshot (a frame record counts each flow event it carries),
	// and replaying suppresses outputs (appends, lifecycle events, degrade
	// narration) while the log is being re-applied — it never selects a state
	// change. All three are guarded by mu.
	journal       *journal.Journal
	journalEvents int
	replaying     bool
	// jbuf is the reused encode buffer for journal payloads (under mu).
	jbuf []byte
	// journalBrokenSeen marks that the broken-journal transition was
	// announced (log line, gauge, lifecycle event) — the latch itself lives
	// in the journal and can be set by its group-commit background flush.
	journalBrokenSeen bool

	// limiters admission-controls redials per agent name (opts.RedialRate);
	// submitLimiters throttles job submissions per tenant (opts.SubmitRate).
	limiters       map[string]*ratelimit.Bucket
	submitLimiters map[string]*ratelimit.Bucket

	// queue is the job-arrival pipeline (opts.Queue). jobGroups/groupJob
	// index registered groups by owning job; jobFlowsLeft counts each job's
	// unfinished flows so its departure is detected on the last finish.
	queue        *queue.Queue
	jobGroups    map[string]map[string]bool
	groupJob     map[string]string
	jobFlowsLeft map[string]int

	// tel caches instrument handles resolved once in New. With Options.
	// Metrics nil every handle is nil and all recording calls are no-ops.
	tel  coordTelemetry
	jtel jobTelemetry
}

// coordTelemetry bundles the coordinator's cached instrument handles.
type coordTelemetry struct {
	reschedules    *telemetry.Counter
	rescheduleLat  *telemetry.Histogram
	totalTard      *telemetry.Gauge
	flowsActive    *telemetry.Gauge
	groupsLive     *telemetry.Gauge
	groupsParked   *telemetry.Gauge
	redialAccepted *telemetry.Counter
	redialRejected *telemetry.Counter
	fsyncLat       *telemetry.Histogram
	snapshots      *telemetry.Counter
	ratesComputed  *telemetry.Counter
	ratesPushed    *telemetry.Counter
	deltaApplied   *telemetry.Counter
	deltaFallback  *telemetry.Counter
	coalesced      *telemetry.Counter
	batches        *telemetry.Counter
	reschedErrors  *telemetry.Counter
	schedRecovered *telemetry.Counter
	shedJobs       *telemetry.Counter
	sendOverflow   *telemetry.Counter
	inboundDepth   *telemetry.Gauge
	journalBroken  *telemetry.Gauge
	softQuar       *telemetry.Counter
	softRelease    *telemetry.Counter
	schedLat       *telemetry.Histogram
	schedCalls     *telemetry.Counter
	schedErrors    *telemetry.Counter
	cacheHits      *telemetry.Counter
	cacheMisses    *telemetry.Counter
	cacheInvals    *telemetry.Counter
}

// Metric family names the coordinator exposes. Kept as constants so tests
// and the CI smoke step assert against one source of truth.
const (
	MetricTotalTardiness         = "echelon_total_tardiness_seconds"
	MetricGroupTardiness         = "echelon_group_tardiness_seconds"
	MetricGroupWeightedTardiness = "echelon_group_weighted_tardiness_seconds"
	MetricReschedules            = "echelon_reschedules_total"
	MetricRescheduleLat          = "echelon_reschedule_seconds"
	MetricFlowsActive            = "echelon_flows_active"
	MetricGroupsLive             = "echelon_groups_registered"
	MetricGroupsParked           = "echelon_groups_parked"
	MetricRedialAccepted         = "echelon_redial_accepted_total"
	MetricRedialRejected         = "echelon_redial_rejected_total"
	MetricJournalFsyncLat        = "echelon_journal_fsync_seconds"
	MetricJournalSnapshots       = "echelon_journal_snapshots_total"
	MetricRatesComputed          = "echelon_allocation_entries_computed_total"
	MetricRatesPushed            = "echelon_allocation_entries_pushed_total"
	MetricDeltaApplied           = "echelon_delta_applied_total"
	MetricDeltaFallback          = "echelon_delta_fallback_total"
	MetricCoalescedEvents        = "echelon_coalesced_events_total"
	MetricCoalesceBatches        = "echelon_coalesce_batches_total"
	MetricRescheduleErrors       = "echelon_reschedule_errors_total"
	MetricSchedDegraded          = "echelon_sched_degraded_total"
	MetricSchedRecoveries        = "echelon_sched_recoveries_total"
	MetricShedSubmissions        = "echelon_shed_submissions_total"
	MetricSendOverflow           = "echelon_send_overflow_total"
	MetricInboundDepth           = "echelon_inbound_queue_depth"
	MetricAgentRTT               = "echelon_agent_rtt_seconds"
	MetricSoftQuarantines        = "echelon_soft_quarantines_total"
	MetricSoftReleases           = "echelon_soft_releases_total"
	MetricJournalBroken          = "echelon_journal_broken"
	MetricSchedLat               = "echelon_schedule_seconds"
	MetricSchedCalls             = "echelon_schedule_calls_total"
	MetricSchedErrors            = "echelon_schedule_errors_total"
	MetricPlanCacheHits          = "echelon_plan_cache_hits_total"
	MetricPlanCacheMisses        = "echelon_plan_cache_misses_total"
	MetricPlanCacheInvals        = "echelon_plan_cache_invalidations_total"
)

// New validates options and returns a Coordinator.
func New(opts Options) (*Coordinator, error) {
	if opts.Net == nil {
		return nil, fmt.Errorf("coordinator: Net is required")
	}
	if opts.Interval < 0 {
		return nil, fmt.Errorf("coordinator: negative Interval %v", opts.Interval)
	}
	if opts.SessionTimeout < 0 {
		return nil, fmt.Errorf("coordinator: negative SessionTimeout %v", opts.SessionTimeout)
	}
	if opts.QuarantineTimeout < 0 {
		return nil, fmt.Errorf("coordinator: negative QuarantineTimeout %v", opts.QuarantineTimeout)
	}
	if opts.SnapshotEvery < 0 {
		return nil, fmt.Errorf("coordinator: negative SnapshotEvery %d", opts.SnapshotEvery)
	}
	if opts.RedialRate < 0 || opts.RedialBurst < 0 {
		return nil, fmt.Errorf("coordinator: negative redial limit %v/%v", opts.RedialRate, opts.RedialBurst)
	}
	if opts.SubmitRate < 0 || opts.SubmitBurst < 0 {
		return nil, fmt.Errorf("coordinator: negative submit limit %v/%v", opts.SubmitRate, opts.SubmitBurst)
	}
	if opts.Coalesce < 0 {
		return nil, fmt.Errorf("coordinator: negative Coalesce %v", opts.Coalesce)
	}
	if opts.SchedDeadline < 0 || opts.DeadlineCooldown < 0 || opts.DeadlineTripAfter < 0 {
		return nil, fmt.Errorf("coordinator: negative scheduler deadline settings %v/%d/%v",
			opts.SchedDeadline, opts.DeadlineTripAfter, opts.DeadlineCooldown)
	}
	if opts.ShedHighWater < 0 || opts.InboundQueue < 0 || opts.SendBuffer < 0 {
		return nil, fmt.Errorf("coordinator: negative backpressure settings %d/%d/%d",
			opts.ShedHighWater, opts.InboundQueue, opts.SendBuffer)
	}
	if opts.WriteTimeout < 0 || opts.StragglerRTT < 0 || opts.PingInterval < 0 {
		return nil, fmt.Errorf("coordinator: negative timing settings %v/%v/%v",
			opts.WriteTimeout, opts.StragglerRTT, opts.PingInterval)
	}
	if opts.InboundQueue == 0 {
		opts.InboundQueue = 256
	}
	if opts.SendBuffer == 0 {
		opts.SendBuffer = 64
	}
	if opts.WriteTimeout == 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	if opts.Scheduler == nil {
		opts.Scheduler = sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}
	}
	if opts.SchedDeadline > 0 {
		if opts.DeadlineTripAfter == 0 {
			opts.DeadlineTripAfter = 3
		}
		if opts.DeadlineCooldown == 0 {
			opts.DeadlineCooldown = 10 * opts.SchedDeadline
		}
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	c := &Coordinator{
		opts:           opts,
		start:          opts.Clock(),
		groups:         make(map[string]*groupRT),
		sessions:       make(map[*session]struct{}),
		byName:         make(map[string]*session),
		limiters:       make(map[string]*ratelimit.Bucket),
		submitLimiters: make(map[string]*ratelimit.Bucket),
		queue:          opts.Queue,
		jobGroups:      make(map[string]map[string]bool),
		groupJob:       make(map[string]string),
		jobFlowsLeft:   make(map[string]int),
	}
	if pc, ok := opts.Scheduler.(interface{ PlanCache() *sched.PlanCache }); ok {
		c.cache = pc.PlanCache()
	}
	if ds, ok := opts.Scheduler.(sched.DeltaScheduler); ok {
		c.delta = ds
	}
	// Families are registered eagerly so /metrics exposes the full surface
	// (tardiness gauges included) before the first event arrives. All calls
	// are nil-safe no-ops without a registry.
	m := opts.Metrics
	c.tel = coordTelemetry{
		reschedules:    m.Counter(MetricReschedules, "Scheduling decisions made."),
		rescheduleLat:  m.Histogram(MetricRescheduleLat, "Latency of a full reschedule (advance + schedule + broadcast)."),
		totalTard:      m.Gauge(MetricTotalTardiness, "Eq. 4 objective: weighted achieved tardiness summed over registered groups."),
		flowsActive:    m.Gauge(MetricFlowsActive, "Released, unfinished flows in the last scheduling snapshot."),
		groupsLive:     m.Gauge(MetricGroupsLive, "Registered EchelonFlow groups (including parked)."),
		groupsParked:   m.Gauge(MetricGroupsParked, "Groups quarantined awaiting their agent's rejoin."),
		redialAccepted: m.Counter(MetricRedialAccepted, "Agent handshakes admitted."),
		redialRejected: m.Counter(MetricRedialRejected, "Agent handshakes rejected by redial admission control."),
		fsyncLat:       m.Histogram(MetricJournalFsyncLat, "Latency of journal appends (fsync per append)."),
		snapshots:      m.Counter(MetricJournalSnapshots, "Journal compactions into a snapshot."),
		ratesComputed:  m.Counter(MetricRatesComputed, "Allocation entries computed across broadcasts."),
		ratesPushed:    m.Counter(MetricRatesPushed, "Allocation entries actually pushed after delta filtering."),
		deltaApplied:   m.Counter(MetricDeltaApplied, "Reschedules served by the incremental delta path."),
		deltaFallback:  m.Counter(MetricDeltaFallback, "Delta-eligible reschedules that fell back to a full Schedule."),
		coalesced:      m.Counter(MetricCoalescedEvents, "Flow events deferred into a coalescing batch."),
		batches:        m.Counter(MetricCoalesceBatches, "Coalesced batches drained into one reschedule."),
		reschedErrors:  m.Counter(MetricRescheduleErrors, "Reschedule attempts that returned an error."),
		schedRecovered: m.Counter(MetricSchedRecoveries, "Transitions from degraded scheduling back to the primary pass."),
		shedJobs:       m.Counter(MetricShedSubmissions, "Job submissions shed above the inbound high-water mark."),
		sendOverflow:   m.Counter(MetricSendOverflow, "Sessions torn down because their outbound buffer overflowed."),
		inboundDepth:   m.Gauge(MetricInboundDepth, "Inbound agent events queued or in flight across all sessions."),
		journalBroken:  m.Gauge(MetricJournalBroken, "1 while the write-ahead journal is latched broken (fail-fast)."),
		softQuar:       m.Counter(MetricSoftQuarantines, "Agents soft-quarantined for straggling heartbeat RTT."),
		softRelease:    m.Counter(MetricSoftReleases, "Soft-quarantined agents released after RTT recovery."),
	}
	name := opts.Scheduler.Name()
	c.tel.schedLat = m.Histogram(MetricSchedLat,
		"Latency of scheduler calls (full Schedule or incremental Apply).", "scheduler", name)
	c.tel.schedCalls = m.Counter(MetricSchedCalls,
		"Scheduler calls (full Schedule or incremental Apply).", "scheduler", name)
	c.tel.schedErrors = m.Counter(MetricSchedErrors,
		"Scheduler calls (full Schedule or incremental Apply) that returned an error.", "scheduler", name)
	if c.cache != nil {
		c.tel.cacheHits = m.Counter(MetricPlanCacheHits,
			"PlanCache lookups reusing a memoized solo ranking.", "scheduler", name)
		c.tel.cacheMisses = m.Counter(MetricPlanCacheMisses,
			"PlanCache lookups that fell through to a planning pass.", "scheduler", name)
		c.tel.cacheInvals = m.Counter(MetricPlanCacheInvals,
			"PlanCache entries dropped by lifecycle invalidation.", "scheduler", name)
	}
	c.tel.totalTard.Set(0)
	if c.queue != nil {
		c.initJobTelemetry()
	}
	return c, nil
}

// eventsOn reports whether lifecycle events are recorded: not with logging
// off, and not in replay (re-emitting recorded history would duplicate it).
func (c *Coordinator) eventsOn() bool { return c.opts.Events != nil && !c.replaying }

func (c *Coordinator) event(e telemetry.Event) {
	if c.eventsOn() {
		c.opts.Events.Append(e)
	}
}

// setGroupTardinessLocked refreshes a group's tardiness gauges and the Eq. 4
// total. The weighted per-group gauges sum (in sorted-ID order, matching
// TotalTardiness) to the total gauge.
func (c *Coordinator) setGroupTardinessLocked(g *groupRT) {
	if c.opts.Metrics == nil {
		return
	}
	gid := g.state.Group.ID
	tard := float64(g.state.AchievedTardiness)
	c.opts.Metrics.Gauge(MetricGroupTardiness, "Achieved tardiness per group.", "group", gid).Set(tard)
	c.opts.Metrics.Gauge(MetricGroupWeightedTardiness, "Weight x achieved tardiness per group (summand of Eq. 4).",
		"group", gid).Set(g.state.Group.EffectiveWeight() * tard)
	c.tel.totalTard.Set(float64(c.totalTardinessLocked()))
}

// dropGroupMetricsLocked removes a departed group's gauges.
func (c *Coordinator) dropGroupMetricsLocked(gid string) {
	if c.opts.Metrics == nil {
		return
	}
	c.opts.Metrics.Delete(MetricGroupTardiness, "group", gid)
	c.opts.Metrics.Delete(MetricGroupWeightedTardiness, "group", gid)
	c.tel.totalTard.Set(float64(c.totalTardinessLocked()))
}

// now converts wall time to scheduler time (seconds since start).
func (c *Coordinator) now() unit.Time {
	return unit.Time(c.opts.Clock().Sub(c.start).Seconds())
}

// clockLocked is the one clock reading a journaled mutation makes: the
// instant its record carries, never behind the model.
func (c *Coordinator) clockLocked() unit.Time { return max(c.now(), c.lastAdvance) }

// instantLocked is clockLocked for a non-coalescible record: the open batch
// is closed first, so its resched record precedes this one in the journal.
func (c *Coordinator) instantLocked() unit.Time {
	c.flushCoalescedLocked()
	return c.clockLocked()
}

// Reschedules reports how many scheduling decisions have been made.
func (c *Coordinator) Reschedules() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reschedules
}

// RegisterGroup records an EchelonFlow on behalf of an owner (an agent name
// or an in-process caller). Flow endpoints must exist in the fabric model.
// Registering a group the same owner already holds is an error — unless the
// group is parked, in which case the registration adopts the surviving
// state (a rejoin).
func (c *Coordinator) RegisterGroup(owner string, g *core.EchelonFlow) error {
	return c.register(owner, g, false)
}

// register implements RegisterGroup. With adoptLive set (the wire path), a
// same-owner duplicate of a live group is a no-op rather than an error: a
// reconnecting agent re-announces groups the coordinator still holds.
func (c *Coordinator) register(owner string, g *core.EchelonFlow, adoptLive bool) error {
	for _, f := range g.Flows {
		if c.opts.Net.Host(f.Src) == nil || c.opts.Net.Host(f.Dst) == nil {
			return fmt.Errorf("coordinator: flow %q references host missing from fabric model", f.ID)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	existing, dup := c.groups[g.ID]
	if !dup {
		_, err := c.commitLocked(&journalEvent{Kind: jRegister, At: c.clockLocked(), Owner: owner, group: g})
		return err
	}
	if existing.owner != owner || (!existing.parked && !adoptLive) {
		return fmt.Errorf("coordinator: group %q already registered", g.ID)
	}
	if !existing.parked {
		return nil
	}
	// A rejoining agent re-registers its groups. Adopt the surviving state —
	// released/finished flags, remaining bytes, reference time and achieved
	// tardiness all carry over — instead of erroring.
	gids := []string{g.ID}
	if _, err := c.commitLocked(&journalEvent{Kind: jRevive, At: c.instantLocked(), Groups: gids}); err != nil {
		// Scheduling the revived group failed. Returning nil here would tell
		// the agent its rejoin succeeded while it holds a stale allocation the
		// scheduler never re-validated — so re-park the group (a record of
		// its own, at the revive's instant) and surface the error.
		c.parkLocked(gids, owner, "rejoin reschedule failed", c.lastAdvance)
		return fmt.Errorf("coordinator: reschedule after %q rejoined: %w", g.ID, err)
	}
	return nil
}

// addGroupLocked installs a fresh group's runtime state: the register
// mutation, also run per compiled group of an admitted job and per group of a
// snapshot. Duplicates are an error.
func (c *Coordinator) addGroupLocked(owner string, g *core.EchelonFlow) error {
	if _, dup := c.groups[g.ID]; dup {
		return fmt.Errorf("coordinator: group %q already registered", g.ID)
	}
	rt := &groupRT{
		state: &sched.GroupState{Group: g},
		flows: make(map[string]*flowRT, len(g.Flows)),
		owner: owner,
	}
	for _, f := range g.Flows {
		rt.flows[f.ID] = &flowRT{flow: f, remaining: f.Size}
	}
	c.groups[g.ID] = rt
	c.setGroupTardinessLocked(rt)
	c.event(telemetry.Event{Kind: telemetry.EventRegister, At: float64(c.lastAdvance),
		Group: g.ID, Agent: owner})
	return nil
}

// UnregisterGroup removes an EchelonFlow (job departure) and reallocates.
func (c *Coordinator) UnregisterGroup(groupID string) (map[string]unit.Rate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.groups[groupID]; !ok {
		return nil, fmt.Errorf("coordinator: unknown group %q", groupID)
	}
	at := c.instantLocked()
	c.event(telemetry.Event{Kind: telemetry.EventUnregister, At: float64(at), Group: groupID})
	rates, err := c.commitLocked(&journalEvent{Kind: jUnregister, At: at, Groups: []string{groupID}})
	c.admitJobsLocked() // the group may have been its job's last: offer the freed slot
	return rates, err
}

// FlowEvent applies a lifecycle transition — a one-event frame — and returns
// the fresh allocation. With coalescing enabled the mutation is applied and
// journaled immediately but the reschedule is deferred into the open batch and
// the returned map is nil — the allocation in force is unchanged, and
// assembling it per event would cost O(all flows) on the hot path (Drain
// reports it on demand).
func (c *Coordinator) FlowEvent(ev wire.FlowEvent) (map[string]unit.Rate, error) {
	return c.flowEvent(ev, false)
}

// flowEvent is FlowEvent with the session's soft-quarantine flag plumbed in.
func (c *Coordinator) flowEvent(ev wire.FlowEvent, soft bool) (map[string]unit.Rate, error) {
	rates, errs := c.flowFrame([]wire.FlowEvent{ev}, soft)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return rates, nil
}

// softCoalesceWindow is the batching window forced on events that must be
// deadline-bounded (soft-quarantined stragglers, degraded scheduling) when no
// Coalesce window is configured.
const softCoalesceWindow = 50 * time.Millisecond

// coalesceWindowLocked picks the batching window for one frame. The
// configured window widens 4x while the scheduler is degraded (one of the
// overload levers: drain event storms into fewer passes); a soft-quarantined
// straggler's reports — and any event during a degraded episode — are batched
// even when coalescing is otherwise off. Zero means reschedule immediately.
func (c *Coordinator) coalesceWindowLocked(soft bool) time.Duration {
	win := c.opts.Coalesce
	if win > 0 && c.dirty {
		win *= 4
	}
	if win == 0 && (soft || c.dirty) {
		win = softCoalesceWindow
	}
	return win
}

// flowFrame applies one frame of flow events (a flow_batch, or a single
// flow_event) as one unit of work: one lock hold, one clock reading, one
// record committed — one advance of the fluid model, every event applied at
// that instant, one reschedule decision. A refused event is reported (one
// error each, in order) and does not stop the rest; a failed reschedule is
// the last error. Jobs the frame completed depart after it, in completion
// order, so nothing can be journaled between a frame's mutations and its
// record.
func (c *Coordinator) flowFrame(evs []wire.FlowEvent, soft bool) (map[string]unit.Rate, []error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	win := c.coalesceWindowLocked(soft)
	ev := journalEvent{Kind: jFlow, At: c.clockLocked(), Flows: evs, Defer: win > 0}
	rates, err := c.commitLocked(&ev) // leaves the events that applied in ev.Flows
	if win > 0 && len(ev.Flows) > 0 {
		c.deferRescheduleLocked(ev.Flows, win)
	}
	// A job completes at its last finish: walking back meets it there first.
	var done []string
	for i := len(ev.Flows) - 1; i >= 0; i-- {
		if ev.Flows[i].Event != wire.EventFinished {
			continue
		}
		if jobID, owned := c.groupJob[ev.Flows[i].GroupID]; owned && c.jobFlowsLeft[jobID] == 0 && !slices.Contains(done, jobID) {
			done = append(done, jobID)
		}
	}
	for i := len(done) - 1; i >= 0; i-- {
		c.departJobLocked(done[i])
	}
	var errs []error
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		errs = joined.Unwrap()
	}
	return rates, errs
}

// applyFrameLocked applies a frame's events at one scheduler time: the flow
// record's mutation. It returns the events that took effect (aliasing evs
// when all did) and one error per refused event.
func (c *Coordinator) applyFrameLocked(evs []wire.FlowEvent, now unit.Time) (applied []wire.FlowEvent, errs []error) {
	applied = evs
	for i, ev := range evs {
		if err := c.applyFlowLocked(ev, now); err != nil {
			if errs == nil {
				applied = append([]wire.FlowEvent(nil), evs[:i]...)
			}
			errs = append(errs, err)
			continue
		}
		if errs != nil {
			applied = append(applied, ev)
		}
		c.cache.InvalidateGroup(ev.GroupID) // the group's released flow set changed
	}
	return applied, errs
}

// frameGroups is the sorted union of a frame's groups: what one reschedule
// for the whole frame is confined to.
func frameGroups(evs []wire.FlowEvent) []string {
	gids := make([]string, len(evs))
	for i := range evs {
		gids[i] = evs[i].GroupID
	}
	sort.Strings(gids)
	return slices.Compact(gids)
}

// deferRescheduleLocked adds a frame's groups to the open coalescing batch,
// opening one (and arming its drain timer for the given window) when none is.
func (c *Coordinator) deferRescheduleLocked(evs []wire.FlowEvent, win time.Duration) {
	if c.pending == nil {
		c.pending = make(map[string]bool)
		c.pendingGen++
		gen := c.pendingGen
		time.AfterFunc(win, func() { c.drainBatch(gen) })
	}
	for i := range evs {
		c.pending[evs[i].GroupID] = true
	}
	c.tel.coalesced.Add(uint64(len(evs)))
}

// drainBatch is the coalescing window's timer callback.
func (c *Coordinator) drainBatch(gen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil || c.pendingGen != gen {
		return // already flushed by a non-coalescible event
	}
	c.flushCoalescedLocked()
}

// flushCoalescedLocked drains the open batch (if any) into one reschedule.
// The batch boundary is journaled — a resched record carrying the batch's
// sorted groups — so Restore replays the exact same batches and stays
// bit-for-bit. Every non-coalescible mutation (capacity change, unregister,
// tick, park/revive/evict, rejoin) flushes before acting, keeping the
// journal order equal to the live decision order.
func (c *Coordinator) flushCoalescedLocked() (map[string]unit.Rate, error) {
	if c.pending == nil {
		return nil, nil
	}
	gids := make([]string, 0, len(c.pending))
	for gid := range c.pending {
		gids = append(gids, gid)
	}
	sort.Strings(gids)
	c.pending = nil
	c.pendingGen++
	c.tel.batches.Inc()
	rates, err := c.commitLocked(&journalEvent{Kind: jResched, At: c.clockLocked(), Groups: gids})
	if err != nil {
		c.opts.Logf("coordinator: coalesced reschedule (%d groups): %v", len(gids), err)
	}
	return rates, err
}

// Drain forces any open coalescing batch to reschedule immediately. With no
// batch open it returns the allocation currently in force. Tests and
// shutdown paths use it to avoid waiting out the window.
func (c *Coordinator) Drain() (map[string]unit.Rate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return c.currentRatesLocked(), nil
	}
	return c.flushCoalescedLocked()
}

// currentRatesLocked returns the committed allocation still in force for
// every active flow — what callers observe while a batch is open.
func (c *Coordinator) currentRatesLocked() map[string]unit.Rate {
	rates := make(map[string]unit.Rate)
	for _, g := range c.groups {
		if g.parked {
			continue
		}
		for id, f := range g.flows {
			if f.released && !f.finished {
				rates[id] = f.rate
			}
		}
	}
	return rates
}

// applyFlowLocked mutates flow state for one lifecycle event at the given
// scheduler time — the record's, live and in replay, so tardiness arithmetic
// reproduces exactly.
func (c *Coordinator) applyFlowLocked(ev wire.FlowEvent, now unit.Time) error {
	g, ok := c.groups[ev.GroupID]
	if !ok {
		return fmt.Errorf("coordinator: unknown group %q", ev.GroupID)
	}
	f, ok := g.flows[ev.FlowID]
	if !ok {
		return fmt.Errorf("coordinator: group %q has no flow %q", ev.GroupID, ev.FlowID)
	}
	switch ev.Event {
	case wire.EventReleased:
		if f.released {
			return fmt.Errorf("coordinator: flow %q released twice", ev.FlowID)
		}
		f.released = true
		f.release = now
		if !g.refSet {
			g.refSet = true
			g.state.Reference = now
		}
		c.event(telemetry.Event{Kind: telemetry.EventRelease, At: float64(now),
			Group: ev.GroupID, Flow: ev.FlowID})
	case wire.EventFinished:
		if f.finished {
			return fmt.Errorf("coordinator: flow %q finished twice", ev.FlowID)
		}
		if !f.released {
			return fmt.Errorf("coordinator: flow %q finished before release", ev.FlowID)
		}
		f.finished = true
		f.remaining = 0
		// Job-owned groups track completion; replay maintains the counter the
		// same way, with the departure decision carried by the journal.
		if jobID, owned := c.groupJob[ev.GroupID]; owned {
			c.jobFlowsLeft[jobID]--
		}
		deadline := g.state.Group.Arrangement.Deadline(f.flow.Stage, g.state.Reference)
		tard := now - deadline
		if tard > g.state.AchievedTardiness {
			g.state.AchievedTardiness = tard
		}
		c.setGroupTardinessLocked(g)
		c.event(telemetry.Event{Kind: telemetry.EventFinish, At: float64(now),
			Group: ev.GroupID, Flow: ev.FlowID, Tardiness: float64(tard)})
	case wire.EventResumed:
		// A rejoined agent continues an in-flight transfer: Offset bytes
		// are already delivered, so scheduling resumes from the remainder.
		// Idempotent on released — the original release survived the park.
		if f.finished {
			return fmt.Errorf("coordinator: flow %q resumed after finish", ev.FlowID)
		}
		if !(ev.Offset >= 0 && ev.Offset <= f.flow.Size) { // NaN fails both
			return fmt.Errorf("coordinator: flow %q resumed at offset %v outside its size %v",
				ev.FlowID, ev.Offset, f.flow.Size)
		}
		if !f.released {
			f.released = true
			f.release = now
			if !g.refSet {
				g.refSet = true
				g.state.Reference = now
			}
		}
		f.remaining = f.flow.Size - ev.Offset
		if c.eventsOn() {
			c.event(telemetry.Event{Kind: telemetry.EventResume, At: float64(now),
				Group: ev.GroupID, Flow: ev.FlowID,
				Detail: fmt.Sprintf("offset %v of %v", ev.Offset, f.flow.Size)})
		}
	default:
		return fmt.Errorf("coordinator: unknown event %q", ev.Event)
	}
	return nil
}

// Tick advances the fluid model and reallocates; Serve calls it on the
// configured interval, and tests may call it directly.
func (c *Coordinator) Tick() (map[string]unit.Rate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked(&journalEvent{Kind: jTick, At: c.instantLocked()})
}

// GroupStatus reports a group's reference time and achieved tardiness.
func (c *Coordinator) GroupStatus(groupID string) (reference, tardiness unit.Time, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[groupID]
	if !ok {
		return 0, 0, fmt.Errorf("coordinator: unknown group %q", groupID)
	}
	return g.state.Reference, g.state.AchievedTardiness, nil
}

// advanceToLocked integrates estimated progress since the last record up to
// the given one's time: a clock reading live, the recorded one in replay.
func (c *Coordinator) advanceToLocked(now unit.Time) {
	dt := now - c.lastAdvance
	if dt <= 0 {
		return
	}
	c.lastAdvance = now
	for _, g := range c.groups {
		for _, f := range g.flows {
			if f.released && !f.finished {
				f.remaining -= f.rate.Over(dt)
				if f.remaining < 0 {
					f.remaining = 0
				}
			}
		}
	}
}

// buildSnapshotLocked assembles the scheduling input at the model's time
// (lastAdvance, never a fresh clock reading: replay must plan at the instant
// the live pass planned at). Assembly is deterministic — groups in sorted ID
// order, flows in their group's arrangement order — because fill arithmetic
// is order-sensitive at the last bit: map-order iteration would make two
// identical coordinators disagree in the final ulp of each rate, which the
// differential harness (internal/check) flags against the journal replay's
// bit-equality guarantee.
func (c *Coordinator) buildSnapshotLocked() *sched.Snapshot {
	snap := &sched.Snapshot{Now: c.lastAdvance, Groups: make(map[string]*sched.GroupState, len(c.groups))}
	gids := make([]string, 0, len(c.groups))
	for gid := range c.groups {
		gids = append(gids, gid)
	}
	sort.Strings(gids)
	for _, gid := range gids {
		g := c.groups[gid]
		if g.parked {
			continue
		}
		snap.Groups[gid] = g.state
		for _, member := range g.state.Group.Flows {
			f := g.flows[member.ID]
			if !f.released || f.finished {
				continue
			}
			remaining := f.remaining
			if remaining <= 0 {
				// The agent hasn't reported completion, so the flow is
				// still real; keep a floor so it retains bandwidth. The
				// floor engages only when the fluid estimate drains to
				// zero: a sub-byte flow schedules at its true remaining,
				// keeping live passes bit-equal to the simulator's.
				remaining = 1
				if f.flow.Size > 0 && f.flow.Size < 1 {
					remaining = f.flow.Size
				}
			}
			snap.Flows = append(snap.Flows, &sched.FlowState{
				Flow: f.flow, GroupID: gid, Remaining: remaining, Release: f.release,
			})
		}
	}
	return snap
}

// plannedPass is a reschedule planned but not yet published: the snapshot it
// planned over, the rates (or error) it produced, and how long that took.
type plannedPass struct {
	snap  *sched.Snapshot
	rates map[string]unit.Rate
	err   error
	took  time.Duration
}

// planLocked is the transition's plan step: one pass over the active flows at
// the model's time — with deltaGroups nil a full Schedule, otherwise confined
// to those groups through the incremental Apply where it can prove the patch
// — and the outcome the record carries. A record that says Fallback runs
// max-min fair; with a SchedDeadline the live side runs the primary against
// the budget and sets Fallback if it must; replay runs the primary unbounded.
// Nothing leaves the coordinator here: that is publishLocked's, after the
// record is written.
func (c *Coordinator) planLocked(ev *journalEvent, deltaGroups []string) *plannedPass {
	t0 := time.Now()
	p := &plannedPass{snap: c.buildSnapshotLocked()}
	full, reason := true, ""
	switch {
	case ev.Fallback: // a replayed record whose live pass fell back
	case c.opts.SchedDeadline > 0 && !c.replaying:
		p.rates, full, reason = c.budgetedPassLocked(p.snap, deltaGroups)
		ev.Fallback = reason != ""
	default:
		p.rates, full, p.err = c.primaryPassLocked(p.snap, deltaGroups)
	}
	was := c.dirty
	if ev.Fallback {
		p.rates, p.err = sched.Fair{}.Schedule(p.snap, c.opts.Net)
		c.dirty = true
	} else if full && p.err == nil {
		c.dirty = false
	}
	if c.dirty != was && !c.replaying {
		c.narrateDegradeLocked(reason, p.snap.Now)
	}
	p.took = time.Since(t0)
	return p
}

// primaryPassLocked runs the configured scheduler: the incremental Apply for
// a delta pass unless the allocation in force is a fallback's (dirty), and a
// full Schedule when Apply refuses. It reports whether the pass was full. A
// stopped Apply is not retried in full: it is over budget already.
func (c *Coordinator) primaryPassLocked(snap *sched.Snapshot, deltaGroups []string) (map[string]unit.Rate, bool, error) {
	if deltaGroups != nil && c.delta != nil {
		if !c.dirty {
			t0 := c.schedClock()
			rates, ok, err := c.delta.Apply(snap, c.opts.Net, sched.Delta{Groups: deltaGroups})
			c.observeSchedLocked(t0, err)
			if err == nil && ok {
				c.tel.deltaApplied.Inc()
				return rates, false, nil
			}
			if errors.Is(err, sched.ErrStopped) {
				return nil, false, err
			}
		}
		// Any refusal (or Apply error) falls back to the full pass, which
		// also rebuilds the incremental state.
		c.tel.deltaFallback.Inc()
	}
	t0 := c.schedClock()
	rates, err := c.opts.Scheduler.Schedule(snap, c.opts.Net)
	c.observeSchedLocked(t0, err)
	return rates, true, err
}

// schedClock reads the clock at the start of a scheduler call, and only
// when there are metrics to time it for.
func (c *Coordinator) schedClock() time.Time {
	if c.opts.Metrics == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeSchedLocked exports one scheduler call that began at t0 and
// returned err: its latency, the call and error counts, and the plan
// cache's counter growth since the previous call.
func (c *Coordinator) observeSchedLocked(t0 time.Time, err error) {
	if c.opts.Metrics == nil {
		return
	}
	c.tel.schedLat.Observe(time.Since(t0).Seconds())
	c.tel.schedCalls.Inc()
	if err != nil {
		c.tel.schedErrors.Inc()
	}
	if c.cache != nil {
		st := c.cache.Stats()
		c.tel.cacheHits.Add(st.Hits - c.cacheSeen.Hits)
		c.tel.cacheMisses.Add(st.Misses - c.cacheSeen.Misses)
		c.tel.cacheInvals.Add(st.Invalidations - c.cacheSeen.Invalidations)
		c.cacheSeen = st
	}
}

// budgetedPassLocked is the deadline budget's live decision for one pass, on
// the injected clock: with the breaker open it is "breaker-open" outright;
// otherwise the primary runs with Stop armed, and a pass that stopped,
// returned past its budget ("overrun") or failed ("error") is a breaker
// strike. A non-empty reason means the caller runs the fallback instead.
func (c *Coordinator) budgetedPassLocked(snap *sched.Snapshot, deltaGroups []string) (rates map[string]unit.Rate, full bool, reason string) {
	start := c.opts.Clock()
	if start.Before(c.breakerUntil) {
		reason = "breaker-open"
	} else {
		stall := time.Duration(c.schedStall.Load())
		over := func() bool { return c.opts.Clock().Sub(start)+stall > c.opts.SchedDeadline }
		snap.Stop = over
		var err error
		rates, full, err = c.primaryPassLocked(snap, deltaGroups)
		snap.Stop = nil
		switch {
		case err == nil && !over():
			c.strikes, c.breakerUntil = 0, time.Time{}
			return rates, full, ""
		case err == nil || errors.Is(err, sched.ErrStopped):
			reason = "overrun"
		default:
			reason = "error"
		}
		if c.strikes++; c.strikes >= c.opts.DeadlineTripAfter {
			c.breakerUntil = c.opts.Clock().Add(c.opts.DeadlineCooldown)
		}
	}
	if c.opts.Metrics != nil {
		c.opts.Metrics.Counter(MetricSchedDegraded,
			"Scheduling passes served by the fallback scheduler.", "reason", reason).Inc()
	}
	return nil, true, reason
}

// narrateDegradeLocked announces an edge of the dirty bit: one event and log
// line when a fallback allocation comes into force, one when a primary full
// pass replaces it.
func (c *Coordinator) narrateDegradeLocked(reason string, at unit.Time) {
	if c.dirty {
		c.event(telemetry.Event{Kind: telemetry.EventDegrade, At: float64(at),
			Detail: reason + "; fallback allocations in force"})
		c.opts.Logf("coordinator: scheduler degraded (%s); falling back to max-min fair", reason)
		return
	}
	c.tel.schedRecovered.Inc()
	c.event(telemetry.Event{Kind: telemetry.EventRecover, At: float64(at), Detail: "primary pass back in force"})
	c.opts.Logf("coordinator: scheduler recovered; primary pass back in force")
}

// publishLocked is the transition's last step, after the record: store the
// planned rates, push them, account for the pass, and compact. The returned
// map covers every active flow.
func (c *Coordinator) publishLocked(p *plannedPass) (map[string]unit.Rate, error) {
	if p.err != nil {
		c.tel.reschedErrors.Inc()
		return nil, fmt.Errorf("coordinator: %w", p.err)
	}
	t0 := time.Now()
	snap, rates := p.snap, p.rates
	c.reschedules++
	for _, fs := range snap.Flows {
		c.groups[fs.GroupID].flows[fs.Flow.ID].rate = rates[fs.Flow.ID]
	}
	c.broadcastLocked(rates)
	if c.opts.Metrics != nil {
		c.tel.reschedules.Inc()
		c.tel.rescheduleLat.Observe((p.took + time.Since(t0)).Seconds())
		c.tel.flowsActive.Set(float64(len(snap.Flows)))
		parked := 0
		for _, g := range c.groups {
			if g.parked {
				parked++
			}
		}
		c.tel.groupsLive.Set(float64(len(c.groups)))
		c.tel.groupsParked.Set(float64(parked))
	}
	if c.eventsOn() {
		c.event(telemetry.Event{Kind: telemetry.EventResched, At: float64(snap.Now),
			Detail: fmt.Sprintf("%d flows across %d groups", len(snap.Flows), len(snap.Groups))})
	}
	// Compaction runs here and nowhere else on the live path: right after a
	// reschedule the stored rates, the scheduler's incremental state and the
	// journal agree. An open coalescing batch has mutations whose reschedule
	// is still owed, so it waits for the batch's own pass; fallback rates
	// (dirty) are not an allocation the incremental state was captured
	// against, so it waits for the primary pass that clears the bit.
	if c.journal != nil && c.opts.SnapshotEvery > 0 && c.journalEvents >= c.opts.SnapshotEvery && c.compactableLocked() {
		c.snapshotLocked()
	}
	return rates, nil
}

// compactableLocked reports whether the current state may be compacted into
// a snapshot: no batch owes a reschedule and no fallback allocation is in
// force.
func (c *Coordinator) compactableLocked() bool { return c.pending == nil && !c.dirty }

// SchedDegraded reports whether the allocation in force came from the
// max-min fair fallback of the scheduler deadline budget (the coordinator is
// dirty until a primary full pass replaces it). Always false without a
// configured SchedDeadline.
func (c *Coordinator) SchedDegraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirty
}

// broadcastLocked pushes an allocation to every connected session. Only
// entries that changed since the session's last push are sent — the paper's
// §5 scalability lever: DDLT's iterative nature means most reschedules
// change few rates, so deltas keep the control plane small.
func (c *Coordinator) broadcastLocked(rates map[string]unit.Rate) {
	if len(c.sessions) == 0 {
		return
	}
	for s := range c.sessions {
		delta := make(map[string]unit.Rate)
		for id, r := range rates {
			if prev, ok := s.sent[id]; !ok || prev != r {
				delta[id] = r
			}
		}
		// Flows absent from the new allocation are finished; drop them
		// from the session's view so a reused ID is re-sent later.
		for id := range s.sent {
			if _, ok := rates[id]; !ok {
				delete(s.sent, id)
			}
		}
		c.ratesTotal += len(rates)
		c.tel.ratesComputed.Add(uint64(len(rates)))
		if len(delta) == 0 {
			continue
		}
		c.ratesPushed += len(delta)
		c.tel.ratesPushed.Add(uint64(len(delta)))
		if err := s.sendAllocation(delta); err != nil {
			if errors.Is(err, errSendBufferFull) {
				// Conflation already absorbed any allocation burst, so a
				// full queue here means the writer is not draining at all:
				// the agent's socket is stalled behind non-conflatable
				// traffic. Keeping the session would silently diverge its
				// allocation view; close the conn so teardown parks its
				// groups and the agent resyncs on redial.
				c.sendOverflowLocked(s)
			}
			c.opts.Logf("coordinator: push to %s failed: %v", s.agent, err)
			continue
		}
		for id, r := range delta {
			s.sent[id] = r
		}
		if c.eventsOn() {
			c.event(telemetry.Event{Kind: telemetry.EventAlloc, At: float64(c.lastAdvance), Agent: s.agent,
				Detail: fmt.Sprintf("%d/%d entries after delta filtering", len(delta), len(rates))})
		}
	}
}

// PushStats reports how many allocation entries were computed versus
// actually pushed after delta filtering.
func (c *Coordinator) PushStats() (computed, pushed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ratesTotal, c.ratesPushed
}

// sendOverflowLocked records a send-buffer overflow and closes the
// session's conn so teardown runs through the usual reader path. Callers
// hold c.mu.
func (c *Coordinator) sendOverflowLocked(s *session) {
	c.tel.sendOverflow.Inc()
	c.event(telemetry.Event{Kind: telemetry.EventSendOverflow, At: float64(c.lastAdvance),
		Agent: s.agent, Detail: "outbound buffer full; closing session"})
	s.conn.Close()
}

// session is one connected agent.
type session struct {
	codec *wire.Codec
	agent string
	conn  net.Conn
	sent  map[string]unit.Rate // last rates pushed to this session
	// lastPush is the wall time (unix nanos) of the most recent outbound
	// send the kernel accepted. The read loop consults it before declaring
	// a silent agent dead: a peer we are actively and successfully pushing
	// to is alive even when its own traffic has stalled. (Observed on
	// loopback under heavy one-directional load: an idle client's small
	// writes can sit out a whole read-deadline window while its kernel
	// keeps acking our pushes.)
	lastPush atomic.Int64
	// superseded marks a session taken over by a reconnect under the same
	// agent name: its teardown must not park or evict the groups the new
	// session has adopted.
	superseded bool

	// out feeds the session's writer goroutine; quit stops it. Enqueueing
	// never blocks: a full buffer (a socket the writer cannot drain into)
	// fails the send instead of wedging the caller, which holds c.mu on the
	// broadcast path.
	out      chan wire.Message
	quit     chan struct{}
	quitOnce sync.Once

	// pendingAlloc conflates allocation pushes. Rates are convergent state —
	// only the latest value per flow matters — so at most one allocation
	// frame occupies the out queue at a time (a nil-Allocation placeholder)
	// and later deltas merge into the pending map until the writer picks it
	// up. Without this, a burst of flow events can outrun the writer's
	// syscall rate and overflow the queue on a perfectly healthy socket.
	// Guarded by allocMu (never held across a lock of c.mu).
	allocMu      sync.Mutex
	pendingAlloc map[string]unit.Rate

	// stall is the injected per-message outbound delay in nanos, the
	// faults.AgentStall chaos hook. soft flags a straggling agent whose
	// heartbeat RTT EWMA crossed the quarantine threshold.
	stall atomic.Int64
	soft  atomic.Bool

	// RTT ping state, guarded by the coordinator's mu: outstanding nonces
	// with their send times, and the smoothed round-trip estimate in seconds.
	pings   map[uint64]time.Time
	rttEWMA float64
}

// errSendBufferFull reports an outbound queue that the session's writer is
// not draining — a stalled or dead agent socket.
var errSendBufferFull = errors.New("session outbound buffer full")

// send enqueues one message for the session's writer. All post-handshake
// sends go through here; delivery (and the lastPush liveness stamp) happens
// on the writer goroutine, so a stalled socket can never block the caller.
func (s *session) send(m wire.Message) error {
	select {
	case <-s.quit:
		return errors.New("session closed")
	default:
	}
	select {
	case s.out <- m:
		return nil
	default:
		return errSendBufferFull
	}
}

// sendAllocation enqueues a rate delta, conflating with any allocation
// still waiting for the writer. Returns errSendBufferFull only when the out
// queue cannot absorb even the single placeholder frame — i.e. it is full
// of non-conflatable traffic the writer is not draining.
func (s *session) sendAllocation(delta map[string]unit.Rate) error {
	s.allocMu.Lock()
	if s.pendingAlloc != nil {
		for id, r := range delta {
			s.pendingAlloc[id] = r
		}
		s.allocMu.Unlock()
		return nil
	}
	pending := make(map[string]unit.Rate, len(delta))
	for id, r := range delta {
		pending[id] = r
	}
	s.pendingAlloc = pending
	s.allocMu.Unlock()
	if err := s.send(wire.Message{Type: wire.TypeAllocation}); err != nil {
		s.allocMu.Lock()
		s.pendingAlloc = nil
		s.allocMu.Unlock()
		return err
	}
	return nil
}

// close stops the writer goroutine; safe to call more than once, and on a
// session that never got a writer (tests drive dropSession directly).
func (s *session) close() {
	s.quitOnce.Do(func() {
		if s.quit != nil {
			close(s.quit)
		}
	})
}

// writeLoop drains the outbound queue onto the socket, each frame under a
// write deadline. A write failure (including a deadline expiry on a wedged
// socket) closes the connection, which unblocks the session's read loop and
// tears the session down through the usual path.
func (s *session) writeLoop(c *Coordinator) {
	for {
		select {
		case <-s.quit:
			return
		case m := <-s.out:
			if d := s.stall.Load(); d > 0 {
				t := time.NewTimer(time.Duration(d))
				select {
				case <-s.quit:
					t.Stop()
					return
				case <-t.C:
				}
			}
			if m.Type == wire.TypeAllocation && m.Allocation == nil {
				// Placeholder from sendAllocation: take whatever has
				// conflated since it was queued. Resolving after the
				// injected stall widens the merge window, matching a
				// genuinely slow socket.
				s.allocMu.Lock()
				rates := s.pendingAlloc
				s.pendingAlloc = nil
				s.allocMu.Unlock()
				if len(rates) == 0 {
					continue
				}
				m.Allocation = &wire.Allocation{Rates: rates}
			}
			if wt := c.opts.WriteTimeout; wt > 0 {
				_ = s.conn.SetWriteDeadline(time.Now().Add(wt))
			}
			if err := s.codec.Send(m); err != nil {
				c.opts.Logf("coordinator: write to agent %s failed: %v", s.agent, err)
				s.conn.Close()
				return
			}
			s.lastPush.Store(time.Now().UnixNano())
		}
	}
}

// Serve accepts agent connections until the context is cancelled or the
// listener fails. It owns the listener and closes it on return.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	defer ln.Close()
	var wg sync.WaitGroup
	defer wg.Wait()

	if c.opts.Interval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(c.opts.Interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if _, err := c.Tick(); err != nil {
						c.opts.Logf("coordinator: tick: %v", err)
					}
				}
			}
		}()
	}

	if c.opts.StragglerRTT > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			iv := c.opts.PingInterval
			if iv <= 0 {
				iv = time.Second
			}
			t := time.NewTicker(iv)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					c.pingSessions()
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ctx.Done()
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.handleConn(ctx, conn)
		}()
	}
}

// handleConn runs one agent session to completion. Three goroutines serve
// it: this reader (framed Recv under the session read deadline), a worker
// draining the bounded inbound queue into handleMessage, and a writer
// draining the bounded outbound queue under write deadlines. The reader
// blocking on a full inbound queue is the backpressure: the kernel stops
// acking and the storming agent's own sends stall, while every other
// session keeps being served.
func (c *Coordinator) handleConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	s := &session{codec: wire.NewCodec(conn), conn: conn, sent: make(map[string]unit.Rate),
		out: make(chan wire.Message, c.opts.SendBuffer), quit: make(chan struct{})}

	hello, err := s.codec.Recv()
	if err != nil || hello.Type != wire.TypeHello {
		c.opts.Logf("coordinator: bad handshake from %s: %v", conn.RemoteAddr(), err)
		return
	}
	if v := hello.Hello.Version; v != wire.ProtocolVersion {
		// Refused in the hello's own framing, which every revision reads.
		c.opts.Logf("coordinator: agent %s speaks protocol %d, refused", hello.Hello.Agent, v)
		_ = s.codec.Refuse(fmt.Sprintf("unsupported protocol version %d (this coordinator speaks only %d)", v, wire.ProtocolVersion))
		return
	}
	s.agent = hello.Hello.Agent
	if !c.admitRedial(s.agent) {
		c.opts.Logf("coordinator: agent %s redialing too fast, rejected", s.agent)
		c.tel.redialRejected.Inc()
		c.opts.Events.Append(telemetry.Event{Kind: telemetry.EventRedialRej,
			At: float64(c.now()), Agent: s.agent, Detail: "redial rate exceeded"})
		_ = s.codec.Refuse("redial rate exceeded")
		return
	}
	c.tel.redialAccepted.Inc()
	c.opts.Events.Append(telemetry.Event{Kind: telemetry.EventRedialOK,
		At: float64(c.now()), Agent: s.agent})
	c.adoptSession(s)

	// Teardown order (LIFO): close the inbound queue, wait out the worker,
	// drop the session (parking groups and closing quit), wait out the
	// writer. The writer starts after adoption so revive-triggered pushes
	// land in the (buffered) queue either way.
	wdone := make(chan struct{})
	go func() { defer close(wdone); s.writeLoop(c) }()
	defer func() { <-wdone }()
	defer c.dropSession(s)
	in := make(chan wire.Message, c.opts.InboundQueue)
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for m := range in {
			if err := c.handleMessage(s, m); err != nil {
				c.opts.Logf("coordinator: agent %s: %v", s.agent, err)
				_ = s.send(wire.Message{Type: wire.TypeError, Error: &wire.Error{Msg: err.Error()}})
			}
			c.tel.inboundDepth.Set(float64(c.inboundDepth.Add(-1)))
		}
	}()
	defer func() { <-workerDone }()
	defer close(in)

	for {
		if ctx.Err() != nil {
			return
		}
		if c.opts.SessionTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(c.opts.SessionTimeout))
		}
		msg, err := s.codec.Recv()
		if err != nil {
			// Recv wraps mid-frame read errors, so unwrap when testing for
			// a deadline timeout.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				// Inbound silence alone does not prove a dead agent. If our
				// own pushes to this session were accepted within the window,
				// the connection is demonstrably alive — re-arm the deadline
				// instead of evicting. Safe even when the timeout struck
				// mid-frame: Recv resumes partial decodes.
				last := s.lastPush.Load()
				if last != 0 && time.Since(time.Unix(0, last)) < c.opts.SessionTimeout {
					c.opts.Logf("coordinator: agent %s silent for %v but outbound pushes are live; keeping session", s.agent, c.opts.SessionTimeout)
					continue
				}
				c.opts.Logf("coordinator: agent %s timed out (no heartbeat)", s.agent)
			} else if err != io.EOF {
				// EOF is a clean hangup; anything else is worth a trace.
				c.opts.Logf("coordinator: agent %s disconnected: %v", s.agent, err)
			}
			return
		}
		c.tel.inboundDepth.Set(float64(c.inboundDepth.Add(1)))
		select {
		case in <- msg:
		case <-s.quit:
			c.inboundDepth.Add(-1)
			return
		}
	}
}

func (c *Coordinator) handleMessage(s *session, msg wire.Message) error {
	switch msg.Type {
	case wire.TypeHeartbeat:
		if msg.Heartbeat != nil && msg.Heartbeat.Nonce != 0 {
			// The agent echoed one of our RTT pings. Fold the round trip
			// into the straggler detector — and do not echo back, which
			// would ping-pong forever.
			c.notePingEcho(s, msg.Heartbeat.Nonce)
			return nil
		}
		// Echo so the agent can measure round-trip time. A send failure here
		// is not an agent protocol error; the Recv loop notices the dead
		// conn on its own.
		_ = s.send(wire.Message{Type: wire.TypeHeartbeat})
		return nil
	case wire.TypeRegister:
		g, err := msg.Register.Group()
		if err != nil {
			return err
		}
		return c.register(s.agent, g, true)
	case wire.TypeUnregister:
		_, err := c.UnregisterGroup(msg.Unregister.GroupID)
		return err
	case wire.TypeFlowEvent:
		_, err := c.flowEvent(*msg.FlowEvent, s.soft.Load())
		return err
	case wire.TypeFlowBatch:
		// One frame, one unit of work; a refused event is reported per event
		// and does not abort the rest of the frame.
		_, errs := c.flowFrame(msg.FlowBatch.Events, s.soft.Load())
		for _, err := range errs {
			c.opts.Logf("coordinator: agent %s: %v", s.agent, err)
			_ = s.send(wire.Message{Type: wire.TypeError, Error: &wire.Error{Msg: err.Error()}})
		}
		return nil
	case wire.TypeSubmitJob:
		if hw := c.opts.ShedHighWater; hw > 0 && c.inboundDepth.Load() > int64(hw) {
			// Overload: refuse new work with the coded throttled error so
			// the backlog of already-admitted events drains first. The
			// session survives; the submitter backs off and retries.
			c.tel.shedJobs.Inc()
			c.event(telemetry.Event{Kind: telemetry.EventShed, At: float64(c.now()), Agent: s.agent,
				Detail: fmt.Sprintf("inbound depth %d above high water %d", c.inboundDepth.Load(), hw)})
			_ = s.send(wire.Message{Type: wire.TypeError, Error: &wire.Error{
				Msg: "coordinator overloaded: job submission shed", Code: wire.ErrCodeThrottled}})
			return nil
		}
		if err := c.SubmitJob(s.agent, msg.SubmitJob.Job); err != nil {
			// Submission refusals are typed wire errors, not protocol
			// failures: the session survives and the agent can retry or fix
			// the spec.
			_ = s.send(wire.Message{Type: wire.TypeError,
				Error: &wire.Error{Msg: err.Error(), Code: submitErrCode(err)}})
		}
		return nil
	default:
		return fmt.Errorf("unexpected message type %q", msg.Type)
	}
}

// maxOutstandingPings caps the per-session nonce table; a session that has
// stopped echoing entirely is judged on the age of its oldest ping instead.
const maxOutstandingPings = 8

// rttAlpha is the EWMA smoothing weight for new RTT observations.
const rttAlpha = 0.3

// pingSessions sends one RTT ping to every session and folds the
// age of long-unanswered pings into the straggler estimate — an agent that
// never echoes must still trip the threshold, not dodge it.
func (c *Coordinator) pingSessions() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for s := range c.sessions {
		var oldest time.Time
		for _, at := range s.pings {
			if oldest.IsZero() || at.Before(oldest) {
				oldest = at
			}
		}
		if !oldest.IsZero() {
			if age := now.Sub(oldest); age > c.opts.StragglerRTT {
				// Censored observation: the true RTT is at least this.
				c.observeRTTLocked(s, age.Seconds())
			}
		}
		if len(s.pings) >= maxOutstandingPings {
			continue
		}
		c.pingNonce++
		n := c.pingNonce
		if s.pings == nil {
			s.pings = make(map[uint64]time.Time)
		}
		s.pings[n] = now
		if err := s.send(wire.Message{Type: wire.TypeHeartbeat, Heartbeat: &wire.Heartbeat{Nonce: n}}); err != nil {
			delete(s.pings, n)
		}
	}
}

// notePingEcho correlates an agent's echo with its outstanding ping and
// updates the straggler estimate.
func (c *Coordinator) notePingEcho(s *session, nonce uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sentAt, ok := s.pings[nonce]
	if !ok {
		return // superseded session's echo, or an unsolicited nonce
	}
	delete(s.pings, nonce)
	rtt := time.Since(sentAt).Seconds()
	if c.opts.Metrics != nil {
		c.opts.Metrics.Histogram(MetricAgentRTT,
			"Coordinator-measured control-plane round-trip time.", "agent", s.agent).Observe(rtt)
	}
	c.observeRTTLocked(s, rtt)
}

// observeRTTLocked folds one RTT sample (seconds) into the session's EWMA
// and flips the soft-quarantine flag across the threshold, with release at
// half of it so a borderline agent does not flap.
func (c *Coordinator) observeRTTLocked(s *session, rtt float64) {
	if s.rttEWMA == 0 {
		s.rttEWMA = rtt
	} else {
		s.rttEWMA = (1-rttAlpha)*s.rttEWMA + rttAlpha*rtt
	}
	thr := c.opts.StragglerRTT.Seconds()
	if thr <= 0 {
		return
	}
	if !s.soft.Load() && s.rttEWMA > thr {
		s.soft.Store(true)
		c.tel.softQuar.Inc()
		c.event(telemetry.Event{Kind: telemetry.EventSoftQuar, At: float64(c.now()), Agent: s.agent,
			Detail: fmt.Sprintf("rtt ewma %.3fs above %.3fs; reports deadline-bounded", s.rttEWMA, thr)})
		c.opts.Logf("coordinator: agent %s soft-quarantined (rtt ewma %.3fs > %.3fs); groups stay scheduled", s.agent, s.rttEWMA, thr)
	} else if s.soft.Load() && s.rttEWMA < thr/2 {
		s.soft.Store(false)
		c.tel.softRelease.Inc()
		c.event(telemetry.Event{Kind: telemetry.EventSoftRelease, At: float64(c.now()), Agent: s.agent,
			Detail: fmt.Sprintf("rtt ewma %.3fs recovered below %.3fs", s.rttEWMA, thr/2)})
		c.opts.Logf("coordinator: agent %s released from soft quarantine (rtt ewma %.3fs)", s.agent, s.rttEWMA)
	}
}

// AgentSoftQuarantined reports whether the named agent's live session is
// soft-quarantined for straggling RTT.
func (c *Coordinator) AgentSoftQuarantined(agent string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byName[agent]
	return s != nil && s.soft.Load()
}

// admitRedial rate-limits reconnects per agent name. A handshake denied
// here never reaches adoptSession, so a flapping agent cannot churn session
// takeover (and the reschedules it triggers) in a tight loop.
func (c *Coordinator) admitRedial(agent string) bool {
	if c.opts.RedialRate <= 0 || agent == "" {
		return true
	}
	c.mu.Lock()
	b := c.limiters[agent]
	if b == nil {
		burst := c.opts.RedialBurst
		if burst <= 0 {
			burst = 1
		}
		var err error
		if b, err = ratelimit.NewBucket(c.opts.RedialRate, burst); err != nil {
			c.mu.Unlock()
			c.opts.Logf("coordinator: redial limiter: %v", err)
			return true
		}
		c.limiters[agent] = b
	}
	c.mu.Unlock()
	return b.Allow(1)
}

// adoptSession installs a freshly-handshaken session. A reconnect under an
// already-connected agent name takes over: the stale session is closed and
// flagged so its teardown leaves the groups alone. Any groups parked from
// the previous incarnation revive with exactly one reschedule.
func (c *Coordinator) adoptSession(s *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.agent != "" {
		if old := c.byName[s.agent]; old != nil {
			old.superseded = true
			delete(c.sessions, old)
			old.conn.Close()
			old.close() // stop its writer promptly; teardown skips superseded sessions
		}
		c.byName[s.agent] = s
	}
	c.sessions[s] = struct{}{}
	var revived []string
	for gid, g := range c.groups {
		if g.owner == s.agent && s.agent != "" && g.parked {
			revived = append(revived, gid)
		}
	}
	if len(revived) == 0 {
		return
	}
	c.opts.Logf("coordinator: agent %s rejoined, revived %d quarantined group(s)", s.agent, len(revived))
	at := c.instantLocked()
	for _, gid := range revived {
		c.event(telemetry.Event{Kind: telemetry.EventRevive, At: float64(at), Group: gid, Agent: s.agent})
	}
	if _, err := c.commitLocked(&journalEvent{Kind: jRevive, At: at, Groups: revived}); err != nil {
		c.opts.Logf("coordinator: reschedule after %s rejoined: %v", s.agent, err)
	}
}

// dropSession handles a disconnected agent. With quarantine enabled its
// groups are parked — progress state retained, zero bandwidth — awaiting a
// rejoin; otherwise (or when the quarantine expires) they are evicted.
func (c *Coordinator) dropSession(s *session) {
	s.close() // stop the writer even when superseded
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.superseded {
		return
	}
	delete(c.sessions, s)
	if c.byName[s.agent] == s {
		delete(c.byName, s.agent)
	}
	var orphaned []string
	for gid, g := range c.groups {
		if g.owner == s.agent && s.agent != "" && !g.parked {
			orphaned = append(orphaned, gid)
		}
	}
	if len(orphaned) == 0 {
		return
	}
	if c.opts.QuarantineTimeout == 0 {
		c.evictLocked(orphaned, "agent "+s.agent+" departed", c.instantLocked())
		return
	}
	c.parkLocked(orphaned, s.agent, "", c.instantLocked())
	c.opts.Logf("coordinator: agent %s died, parked %d group(s) for %v", s.agent, len(orphaned), c.opts.QuarantineTimeout)
}

// parkLocked quarantines groups at the given instant: progress state
// retained, zero bandwidth, one full pass handing their share on. Eviction
// timers (when a quarantine window is configured) and the park generation
// they check belong to this incarnation only, so they are armed here. Shared
// by session teardown and the rejoin-failure path.
func (c *Coordinator) parkLocked(gids []string, agent, why string, at unit.Time) {
	parkedAt := c.opts.Clock()
	for _, gid := range gids {
		g := c.groups[gid]
		g.parkGen++
		g.parkedAt = parkedAt
		if c.opts.QuarantineTimeout > 0 {
			gid, gen := gid, g.parkGen
			time.AfterFunc(c.opts.QuarantineTimeout, func() { c.evictIfStillParked(gid, gen) })
		}
		c.event(telemetry.Event{Kind: telemetry.EventPark, At: float64(at), Group: gid, Agent: agent, Detail: why})
	}
	if _, err := c.commitLocked(&journalEvent{Kind: jPark, At: at, Groups: gids}); err != nil {
		c.opts.Logf("coordinator: reschedule after parking %d group(s) of %s: %v", len(gids), agent, err)
	}
}

// evictIfStillParked is the quarantine timer callback: the group is evicted
// only if it is still parked from the same incarnation that armed the timer,
// and only once the quarantine window has elapsed on the configured clock.
func (c *Coordinator) evictIfStillParked(gid string, gen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[gid]
	if !ok || !g.parked || g.parkGen != gen {
		return
	}
	// The wall timer can outrun the injected clock (fake clocks in tests,
	// timer skew in production). Deciding against opts.Clock means a rejoin
	// landing exactly at the quarantine deadline wins: the eviction re-arms
	// for the remainder instead of racing the adoption.
	if left := c.opts.QuarantineTimeout - c.opts.Clock().Sub(g.parkedAt); left > 0 {
		time.AfterFunc(left, func() { c.evictIfStillParked(gid, gen) })
		return
	}
	c.evictLocked([]string{gid}, "quarantine expired", c.instantLocked())
}

// evictLocked removes groups at the given instant, reallocates once, and
// offers any admission slot a dissolved job freed.
func (c *Coordinator) evictLocked(gids []string, why string, at unit.Time) {
	for _, gid := range gids {
		c.event(telemetry.Event{Kind: telemetry.EventEvict, At: float64(at), Group: gid, Detail: why})
	}
	_, err := c.commitLocked(&journalEvent{Kind: jEvict, At: at, Groups: gids})
	c.opts.Logf("coordinator: evicted %d group(s): %s", len(gids), why)
	if err != nil {
		c.opts.Logf("coordinator: reschedule after eviction: %v", err)
	}
	c.admitJobsLocked()
}

// GroupParked reports whether a group is quarantined (owner session dead,
// awaiting rejoin). Unknown groups report false.
func (c *Coordinator) GroupParked(groupID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[groupID]
	return ok && g.parked
}

// TotalTardiness is Eq. 4's objective over the live system: the weighted
// sum of achieved tardiness across registered groups. A parked group counts
// exactly once — its state object survives the park/rejoin cycle rather
// than being re-created. Groups are summed in sorted ID order: float
// addition is not associative, so map-order summation would make the
// objective differ in the last bit between otherwise identical runs.
func (c *Coordinator) TotalTardiness() unit.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalTardinessLocked()
}

func (c *Coordinator) totalTardinessLocked() unit.Time {
	gids := make([]string, 0, len(c.groups))
	for gid := range c.groups {
		gids = append(gids, gid)
	}
	sort.Strings(gids)
	var sum float64
	for _, gid := range gids {
		g := c.groups[gid]
		sum += g.state.Group.EffectiveWeight() * float64(g.state.AchievedTardiness)
	}
	return unit.Time(sum)
}

// SetCapacity rewires a host's port capacities in the fabric model and
// reallocates immediately — the live fault driver's degrade/recover hook.
func (c *Coordinator) SetCapacity(host string, egress, ingress unit.Rate) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.commitLocked(&journalEvent{Kind: jCapacity, At: c.instantLocked(), Host: host, Egress: egress, Ingress: ingress})
	return err
}

// SetSchedStall makes every budgeted scheduling pass count d more elapsed
// time than it took — the faults.SchedStall live hook: a stall above the
// budget drives every pass into the fallback exactly as a slow scheduler
// would, without sleeping under the lock. Zero clears. Requires a configured
// SchedDeadline (without one there is no budget to exceed).
func (c *Coordinator) SetSchedStall(d time.Duration) error {
	if c.opts.SchedDeadline <= 0 {
		return fmt.Errorf("coordinator: no scheduler deadline configured")
	}
	c.schedStall.Store(int64(max(d, 0)))
	return nil
}

// SetAgentStall delays the named agent's outbound frames by d each — the
// faults.AgentStall live hook. Zero clears.
func (c *Coordinator) SetAgentStall(agent string, d time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byName[agent]
	if s == nil {
		return fmt.Errorf("coordinator: agent %q has no live session", agent)
	}
	s.stall.Store(int64(d))
	return nil
}

// SetFsyncStall makes every journal append take an extra d — the
// faults.FsyncStall live hook. Zero clears.
func (c *Coordinator) SetFsyncStall(d time.Duration) {
	c.fsyncStall.Store(int64(d))
}

// Capacity reports a host's current capacities in the fabric model (the
// live fault driver snapshots baselines through this).
func (c *Coordinator) Capacity(host string) (egress, ingress unit.Rate, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opts.Net.Capacity(host)
}

// Close releases the journal, if the coordinator was built with Restore.
// The coordinator stays usable afterwards but stops journaling; call it once
// Serve has returned.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	return err
}
