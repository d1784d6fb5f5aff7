package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"echelonflow/internal/coordinator"
	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// liveSpec is one live workload: an in-process coordinator on loopback TCP
// driven by tenant connections through the real online path (submit_job ->
// place/admit -> flow lifecycle -> departure).
type liveSpec struct {
	name       string
	fabric     string // fabric.ParseSpec grammar
	hosts      int
	placement  string
	admitLimit int
	// window is W: how many released-but-unfinished flows each job keeps
	// open. Together with 1-4 GB flows it keeps the scheduler's active set
	// stable and contended, instead of draining between events.
	window int
	shape  jobShape
	// outstanding is how many jobs each of `conns` connections keeps
	// submitted-and-not-departed.
	outstanding func(conns int) int
	journal     bool
	coalesce    time.Duration
	// streamed pipelines 32-event flow_batch frames and fences once per job;
	// otherwise every event is fenced (a closed loop per connection).
	streamed bool
	// warmup is how many flow events each connection completes during
	// set-up; they are excluded from every metric but setup_s.
	warmup int
	// tailQ is the percentile latency_tail_ms reports.
	tailQ float64
}

const (
	batchMax     = 32
	fenceTimeout = 30 * time.Second
	// feasEvery is how many fences pass between feasibility samples on
	// connection 0. Drain flushes an open coalescing batch, so the sample
	// must be rare enough not to change what is measured.
	feasEvery = 2048
	// recordMax bounds the per-direction message sample the wire probe replays.
	recordMax = 4096
)

var liveSpecs = map[string]*liveSpec{
	"live-small": {
		name: "live-small", fabric: "bigswitch", hosts: 16, placement: "spread", admitLimit: 4, window: 2,
		shape:       jobShape{paradigms: liveParadigms, workers: []int{2, 3}, iters: []int{6, 8, 10}},
		outstanding: func(c int) int { return max(1, 4/c) },
		warmup:      1500, tailQ: 0.99,
	},
	"live-large": {
		name: "live-large", fabric: "leafspine:hosts=16,spines=4,oversub=4", hosts: 1024, placement: "netaware",
		admitLimit: 48, window: 8,
		shape:       jobShape{paradigms: liveParadigms, workers: []int{8, 10, 12, 16}, iters: []int{1}, variants: 2},
		outstanding: func(c int) int { return max(1, 48/c) },
		warmup:      100, tailQ: 0.99,
	},
	"live-durable": {
		name: "live-durable", fabric: "bigswitch", hosts: 64, placement: "spread", admitLimit: 4, window: 2,
		shape:       jobShape{paradigms: liveParadigms, workers: []int{2, 3}, iters: []int{1, 2}},
		outstanding: func(c int) int { return 2 * c },
		journal:     true, coalesce: 2 * time.Millisecond, streamed: true,
		warmup: 1500, tailQ: 0.95,
	},
}

// options is the coordinator configuration of the workload.
func (spec *liveSpec) options(netw fabric.Fabric, s sched.Scheduler, placer queue.Placer, logf func(string, ...interface{})) coordinator.Options {
	opts := coordinator.Options{
		Net: netw, Scheduler: s, Coalesce: spec.coalesce, Logf: logf,
		Queue: queue.New(queue.Options{Placer: placer, MaxJobs: spec.admitLimit}),
	}
	if spec.journal {
		// The CLI defaults: compact every 256 records, 5 ms group-commit.
		opts.SnapshotEvery, opts.GroupCommit = 256, 5*time.Millisecond
	}
	return opts
}

// newScheduler is the scheduler every live workload runs, with its cache.
func newScheduler() (*sched.DeltaEchelon, *sched.PlanCache) {
	cache := sched.NewPlanCache()
	return sched.NewDelta(sched.EchelonMADD{Backfill: true, Cache: cache}), cache
}

// runEnv is what every workload run shares.
type runEnv struct {
	seed   int64
	conns  int
	tmp    string // scratch directory inside the checkout
	traced bool
}

// flowTable maps every compiled flow to its endpoints, so a sampled
// allocation can be checked against the fabric.
type flowTable struct {
	mu sync.Mutex
	m  map[string][2]string
}

// add records a compiled job's flows.
func (ft *flowTable) add(nodes []*dag.Node) {
	ft.mu.Lock()
	for _, n := range nodes {
		if n.Kind == dag.Comm {
			ft.m[n.ID] = [2]string{n.Src, n.Dst}
		}
	}
	ft.mu.Unlock()
}

func (ft *flowTable) drop(ids []wire.FlowEvent) {
	ft.mu.Lock()
	for _, e := range ids {
		delete(ft.m, e.FlowID)
	}
	ft.mu.Unlock()
}

// feasible checks rates against every link's capacity. It is Fabric.Feasible
// with a relative tolerance: that method's absolute 1e-6 slack is below one
// ulp of a sum of 1e9-scale rates accumulated in a different order than the
// scheduler's. Flows no longer in the table (their job departed between the
// sample and this check) are skipped, which can only miss load, not invent it.
func (ft *flowTable) feasible(net fabric.Fabric, rates map[string]unit.Rate) error {
	used := make(map[fabric.LinkKey]unit.Rate)
	var buf []fabric.LinkKey
	ft.mu.Lock()
	for id, r := range rates {
		ends, ok := ft.m[id]
		if !ok {
			continue
		}
		if r < 0 || math.IsNaN(float64(r)) {
			ft.mu.Unlock()
			return fmt.Errorf("flow %s has rate %v", id, r)
		}
		buf = net.FlowLinks(ends[0], ends[1], buf[:0])
		for _, k := range buf {
			used[k] += r
		}
	}
	ft.mu.Unlock()
	for k, u := range used {
		if c := net.LinkCapacity(k); float64(u) > float64(c)*(1+1e-9) {
			return fmt.Errorf("link %s carries %v of %v", k, u, c)
		}
	}
	return nil
}

// logSink captures the coordinator's Logf output. Lines logged while armed
// (set-up's warm-up and the measured phase) count as failed operations; a
// healthy run logs nothing there.
type logSink struct {
	armed atomic.Bool
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...interface{}) {
	if !l.armed.Load() {
		return
	}
	l.mu.Lock()
	if len(l.lines) < 64 {
		l.lines = append(l.lines, fmt.Sprintf(format, args...))
	} else {
		l.lines = append(l.lines, "")
	}
	l.mu.Unlock()
}

// liveMeters is the traced run's instrumentation.
type liveMeters struct {
	epoch  time.Time
	reg    *telemetry.Registry
	sched  *meteredSched
	fab    *countingFabric
	placer *timedPlacer

	bytesSent, bytesRecv atomic.Int64

	// Gauge maxima, polled by the sampler goroutine.
	inboundMax, depthMax atomic.Int64
	stopSampler          chan struct{}
	samplerDone          chan struct{}
}

// liveInstance is one set-up coordinator with its tenants connected and
// warmed up.
type liveInstance struct {
	spec    *liveSpec
	env     runEnv
	net     fabric.Fabric
	coord   *coordinator.Coordinator
	cancel  context.CancelFunc
	served  chan error
	tenants []*tenant
	logs    *logSink
	flows   *flowTable
	meters  *liveMeters // nil when untraced
	jdir    string      // journal directory, "" when the journal is off
	setup   time.Duration
	cache   *sched.PlanCache
}

// setUpLive builds the fabric, coordinator and listener, dials the tenants,
// submits the first jobs and completes the warm-up events.
func setUpLive(spec *liveSpec, env runEnv) (*liveInstance, error) {
	t0 := time.Now()
	in := &liveInstance{spec: spec, env: env, logs: &logSink{}, flows: &flowTable{m: make(map[string][2]string)}}
	ok := false
	defer func() {
		if !ok {
			in.tearDown()
		}
	}()

	netw, err := buildFabric(spec.fabric, spec.hosts)
	if err != nil {
		return nil, err
	}
	var scheduler sched.Scheduler
	scheduler, in.cache = newScheduler()
	placer, err := queue.PlacerByName(spec.placement)
	if err != nil {
		return nil, err
	}
	if env.traced {
		m := &liveMeters{epoch: t0, reg: telemetry.NewRegistry()}
		m.fab = &countingFabric{Fabric: netw}
		netw = m.fab
		scheduler, m.sched = meter(scheduler, t0)
		m.placer = &timedPlacer{inner: placer, epoch: t0}
		placer = m.placer
		in.meters = m
	}
	in.net = netw
	opts := spec.options(netw, scheduler, placer, in.logs.logf)
	if in.meters != nil {
		opts.Metrics = in.meters.reg
	}
	if spec.journal {
		if in.jdir, err = os.MkdirTemp(env.tmp, "journal-"); err != nil {
			return nil, err
		}
		in.coord, err = coordinator.Restore(opts, in.jdir)
	} else {
		in.coord, err = coordinator.New(opts)
	}
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	in.cancel = cancel
	in.served = make(chan error, 1)
	go func() { in.served <- in.coord.Serve(ctx, ln) }()

	for i := 0; i < env.conns; i++ {
		t, err := dialTenant(in, i, ln.Addr().String())
		if err != nil {
			return nil, err
		}
		in.tenants = append(in.tenants, t)
	}
	if m := in.meters; m != nil {
		m.stopSampler, m.samplerDone = make(chan struct{}), make(chan struct{})
		go m.sample()
	}
	in.logs.armed.Store(true)
	if err := in.drive(func(t *tenant) bool { return t.events >= spec.warmup }); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	in.setup = time.Since(t0)
	ok = true
	return in, nil
}

// sample polls the two depth gauges for their maxima; the registry keeps
// only current values.
func (m *liveMeters) sample() {
	defer close(m.samplerDone)
	inbound := m.reg.Gauge(coordinator.MetricInboundDepth, "")
	depth := m.reg.Gauge(coordinator.MetricQueueDepth, "")
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-m.stopSampler:
			return
		case <-tick.C:
			if v := int64(inbound.Value()); v > m.inboundMax.Load() {
				m.inboundMax.Store(v)
			}
			if v := int64(depth.Value()); v > m.depthMax.Load() {
				m.depthMax.Store(v)
			}
		}
	}
}

// drive runs every tenant's driver until stop reports true for it, and
// returns the first driver error.
func (in *liveInstance) drive(stop func(*tenant) bool) error {
	errs := make(chan error, len(in.tenants))
	for _, t := range in.tenants {
		go func(t *tenant) {
			run := t.runFenced
			if in.spec.streamed {
				run = t.runStreamed
			}
			err := run(func() bool { return stop(t) })
			t.ended = time.Now()
			errs <- err
		}(t)
	}
	var first error
	for range in.tenants {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tearDown stops everything the instance started and waits for it. The
// journal directory stays until removeJournal, so recovery can be timed.
func (in *liveInstance) tearDown() {
	in.logs.armed.Store(false)
	if m := in.meters; m != nil && m.stopSampler != nil {
		close(m.stopSampler)
		<-m.samplerDone
		m.stopSampler = nil
	}
	for _, t := range in.tenants {
		t.close()
	}
	if in.cancel != nil {
		in.cancel()
		<-in.served
		in.cancel = nil
	}
	if in.coord != nil {
		_ = in.coord.Close() // the journal's last flush; nothing reads it on failure
	}
}

func (in *liveInstance) removeJournal() {
	if in.jdir != "" {
		os.RemoveAll(in.jdir)
		in.jdir = ""
	}
}

// jobState is a submitted job's position in its lifecycle, as the tenant has
// learned it from job_update pushes.
type jobState int

const (
	jobSubmitted jobState = iota
	jobAdmitted
	jobDeparted
)

// activeJob is one submitted job and, once admitted, its compiled lifecycle.
type activeJob struct {
	spec     wire.JobSpec
	state    jobState
	hosts    []string
	submitAt time.Time
	admitAt  time.Time
	// flows lists the job's comm nodes in graph order; next is the first
	// not yet released and open the released-but-unfinished ones, oldest
	// first.
	flows []wire.FlowEvent
	next  int
	open  []int
}

// eventRec is one fenced event (or, streamed, one job's whole stream) of
// the traced run.
type eventRec struct {
	start, end int64
	job, group string
}

// step returns the job's next lifecycle event under the in-flight window:
// release the next flow, or finish the oldest once more than `window` are
// open or nothing is left to release.
func (j *activeJob) step(window int) wire.FlowEvent {
	if len(j.open) > window || j.next == len(j.flows) {
		ev := j.flows[j.open[0]]
		j.open = j.open[1:]
		ev.Event = wire.EventFinished
		return ev
	}
	ev := j.flows[j.next]
	j.open = append(j.open, j.next)
	j.next++
	ev.Event = wire.EventReleased
	return ev
}

func (j *activeJob) done() bool { return j.next == len(j.flows) && len(j.open) == 0 }

type stampedUpdate struct {
	u  wire.JobUpdate
	at time.Time
}

// tenant is one connection: a reader goroutine and the driver, which runs on
// the caller's goroutine. Fields below "driver-owned" are touched by the
// driver only; the reader communicates through channels and atomics.
type tenant struct {
	in    *liveInstance
	idx   int
	conn  net.Conn
	codec *wire.Codec
	gen   *jobGen

	updates    chan stampedUpdate
	echoes     chan struct{}
	fatal      chan error
	readerDone chan struct{}
	closing    atomic.Bool

	msgsRecv, allocEntries, wireErrors atomic.Int64
	recording                          atomic.Bool
	recMu                              sync.Mutex
	recvSample                         []wire.Message

	// driver-owned
	jobs       map[string]*activeJob
	slots      []*activeJob // fenced: one running job per slot
	admitted   []*activeJob // streamed: admitted, not yet run
	fenceTimer *time.Timer

	events, submits, fences, msgsSent int
	// lat is the workload's caller-visible wait in ms: the fenced event round
	// trip, or streamed, the admission wait.
	lat, waits, builds samples // ms, ms, us
	failures           []string
	sentSample         []wire.Message
	measuring          bool
	ended              time.Time
	jobRecs            []jobRec
	eventRecs          []eventRec // in time order
}

// jobRec is a departed job's timeline for the trace.
type jobRec struct {
	id                    string
	submit, admit, depart int64
}

func dialTenant(in *liveInstance, idx int, addr string) (*tenant, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if m := in.meters; m != nil {
		conn = countingConn{Conn: conn, sent: &m.bytesSent, recv: &m.bytesRecv}
	}
	t := &tenant{
		in: in, idx: idx, conn: conn, codec: wire.NewCodec(conn),
		gen: newJobGen(in.env.seed, idx, in.env.conns, in.spec.shape),
		// Job updates are a handful per job; the buffer only has to cover the
		// pushes that arrive while the driver streams one job.
		updates:    make(chan stampedUpdate, 1024),
		echoes:     make(chan struct{}, 1),
		fatal:      make(chan error, 1),
		readerDone: make(chan struct{}),
		jobs:       make(map[string]*activeJob),
		slots:      make([]*activeJob, in.spec.outstanding(in.env.conns)),
		fenceTimer: time.NewTimer(time.Hour),
	}
	hello := wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Agent: t.gen.prefix, Version: wire.ProtocolVersion}}
	if err := t.codec.Send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	t.codec.EnableBinary() // the hello itself always travels JSON-framed
	go t.readLoop()
	return t, nil
}

func (t *tenant) close() {
	if t.closing.Swap(true) {
		return
	}
	t.conn.Close()
	<-t.readerDone
	t.fenceTimer.Stop()
}

func (t *tenant) readLoop() {
	defer close(t.readerDone)
	for {
		msg, err := t.codec.Recv()
		if err != nil {
			if !t.closing.Load() {
				select {
				case t.fatal <- fmt.Errorf("tenant %d: recv: %w", t.idx, err):
				default:
				}
			}
			return
		}
		t.msgsRecv.Add(1)
		switch msg.Type {
		case wire.TypeAllocation:
			t.allocEntries.Add(int64(len(msg.Allocation.Rates)))
		case wire.TypeHeartbeat:
			t.echoes <- struct{}{}
		case wire.TypeJobUpdate:
			t.updates <- stampedUpdate{*msg.JobUpdate, time.Now()}
		case wire.TypeError:
			t.wireErrors.Add(1)
		}
		if t.recording.Load() {
			t.recMu.Lock()
			if len(t.recvSample) < recordMax {
				t.recvSample = append(t.recvSample, msg)
			} else {
				t.recording.Store(false)
			}
			t.recMu.Unlock()
		}
	}
}

func (t *tenant) fail(format string, args ...interface{}) {
	if len(t.failures) < 16 {
		t.failures = append(t.failures, fmt.Sprintf("tenant %d: ", t.idx)+fmt.Sprintf(format, args...))
	} else {
		t.failures = append(t.failures, "")
	}
}

func (t *tenant) send(m wire.Message) error {
	t.msgsSent++
	if t.in.meters != nil && t.measuring && len(t.sentSample) < recordMax {
		t.sentSample = append(t.sentSample, m)
	}
	return t.codec.Send(m)
}

var errFenceTimeout = errors.New("fence timed out")

// fence sends a nonce-less heartbeat and waits for its echo. The coordinator
// handles a session's messages in order and queues pushes in order, so the
// echo arrives after everything sent before it was applied, rescheduled, and
// its allocation and job updates queued ahead of the echo.
func (t *tenant) fence() error {
	if err := t.send(wire.Message{Type: wire.TypeHeartbeat}); err != nil {
		return err
	}
	t.fences++
	t.fenceTimer.Reset(fenceTimeout)
	select {
	case <-t.echoes:
		if !t.fenceTimer.Stop() {
			select {
			case <-t.fenceTimer.C:
			default:
			}
		}
		return nil
	case err := <-t.fatal:
		return err
	case <-t.fenceTimer.C:
		t.fail("fence %d timed out", t.fences)
		return errFenceTimeout
	}
}

// apply folds one job_update into the tenant's view.
func (t *tenant) apply(su stampedUpdate) {
	j := t.jobs[su.u.JobID]
	if j == nil {
		t.fail("update %q for unknown job %q", su.u.Status, su.u.JobID)
		return
	}
	switch su.u.Status {
	case wire.JobQueued:
	case wire.JobAdmitted:
		j.state, j.hosts, j.admitAt = jobAdmitted, su.u.Hosts, su.at
		wait := ms(su.at.Sub(j.submitAt))
		t.waits.add(wait)
		if t.in.spec.streamed {
			t.lat.add(wait)
		}
		if t.in.spec.streamed {
			t.admitted = append(t.admitted, j)
		}
	case wire.JobDeparted:
		j.state = jobDeparted
	default:
		t.fail("job %s %s: %s", su.u.JobID, su.u.Status, su.u.Reason)
	}
}

func (t *tenant) drainUpdates() {
	for {
		select {
		case su := <-t.updates:
			t.apply(su)
		default:
			return
		}
	}
}

func (t *tenant) submit() (*activeJob, error) {
	j := &activeJob{spec: t.gen.next(), submitAt: time.Now()}
	t.jobs[j.spec.ID] = j
	t.submits++
	return j, t.send(wire.Message{Type: wire.TypeSubmitJob, SubmitJob: &wire.SubmitJob{Job: j.spec}})
}

// compile builds the admitted job on its placement — the same queue.Build
// the coordinator ran — so flow and group IDs line up with no extra protocol.
func (t *tenant) compile(j *activeJob) error {
	t0 := time.Now()
	w, err := queue.Build(j.spec, j.hosts)
	if err != nil {
		return fmt.Errorf("compile admitted job %s: %w", j.spec.ID, err)
	}
	t.builds.add(us(time.Since(t0)))
	for _, n := range w.Graph.Nodes() {
		if n.Kind != dag.Comm {
			continue
		}
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		j.flows = append(j.flows, wire.FlowEvent{GroupID: gid, FlowID: n.ID})
	}
	t.in.flows.add(w.Graph.Nodes())
	return nil
}

// retire checks a finished job departed and forgets it.
func (t *tenant) retire(j *activeJob) {
	t.drainUpdates()
	if j.state != jobDeparted {
		t.fail("job %s sent its last finish but has not departed", j.spec.ID)
	}
	delete(t.jobs, j.spec.ID)
	t.in.flows.drop(j.flows)
	if m := t.in.meters; m != nil {
		t.jobRecs = append(t.jobRecs, jobRec{id: j.spec.ID,
			submit: int64(j.submitAt.Sub(m.epoch)), admit: int64(j.admitAt.Sub(m.epoch)),
			depart: int64(time.Since(m.epoch))})
	}
}

// runFenced is the closed loop: one event in flight per connection, slots
// served round-robin, every event (and every submission) fenced.
func (t *tenant) runFenced(stop func() bool) error {
	window := t.in.spec.window
	for {
		for i, j := range t.slots {
			if stop() {
				return nil
			}
			if j == nil {
				j, err := t.submit()
				if err != nil {
					return err
				}
				if err := t.fence(); err != nil {
					return err
				}
				t.drainUpdates()
				if j.state != jobAdmitted {
					// Outstanding jobs never exceed the admit limit, so a free
					// slot is certain: not admitted by the fence is a failure.
					t.fail("job %s not admitted by its fence", j.spec.ID)
					return fmt.Errorf("job %s not admitted", j.spec.ID)
				}
				if err := t.compile(j); err != nil {
					return err
				}
				t.slots[i] = j
				continue
			}
			ev := j.step(window)
			t0 := time.Now()
			if err := t.send(wire.Message{Type: wire.TypeFlowEvent, FlowEvent: &ev}); err != nil {
				return err
			}
			if err := t.fence(); err != nil {
				return err
			}
			rtt := time.Since(t0)
			t.events++
			t.lat.add(ms(rtt))
			if m := t.in.meters; m != nil {
				start := int64(t0.Sub(m.epoch))
				t.eventRecs = append(t.eventRecs, eventRec{start, start + int64(rtt), j.spec.ID, ev.GroupID})
			}
			if t.idx == 0 && t.fences%feasEvery == 0 {
				t.checkFeasible()
			}
			if j.done() {
				t.retire(j)
				t.slots[i] = nil
			}
		}
	}
}

// runStreamed keeps `outstanding` jobs submitted and runs admitted ones one
// at a time, pipelining each job's events in flow_batch frames and fencing
// once at its end.
func (t *tenant) runStreamed(stop func() bool) error {
	window := t.in.spec.window
	target := len(t.slots)
	for !stop() {
		for len(t.jobs) < target {
			if _, err := t.submit(); err != nil {
				return err
			}
		}
		t.drainUpdates()
		for len(t.admitted) == 0 {
			t.fenceTimer.Reset(fenceTimeout)
			select {
			case su := <-t.updates:
				t.apply(su)
			case err := <-t.fatal:
				return err
			case <-t.fenceTimer.C:
				t.fail("no admission within %v", fenceTimeout)
				return errFenceTimeout
			}
		}
		j := t.admitted[0]
		t.admitted = t.admitted[1:]
		if err := t.compile(j); err != nil {
			return err
		}
		t0 := time.Now()
		for !j.done() {
			// A fresh slice per frame: the wire probe's message sample keeps it.
			batch := make([]wire.FlowEvent, 0, batchMax)
			for len(batch) < batchMax && !j.done() {
				batch = append(batch, j.step(window))
			}
			msg := wire.Message{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: batch}}
			if err := t.send(msg); err != nil {
				return err
			}
		}
		if err := t.fence(); err != nil {
			return err
		}
		t.events += 2 * len(j.flows)
		if m := t.in.meters; m != nil {
			start := int64(t0.Sub(m.epoch))
			t.eventRecs = append(t.eventRecs, eventRec{start, int64(time.Since(m.epoch)), j.spec.ID, ""})
		}
		if t.idx == 0 && t.fences%64 == 0 {
			t.checkFeasible()
		}
		t.retire(j)
	}
	return nil
}

// checkFeasible samples the allocation in force and verifies it against the
// fabric's link capacities.
func (t *tenant) checkFeasible() {
	rates, err := t.in.coord.Drain()
	if err != nil {
		t.fail("drain: %v", err)
		return
	}
	if err := t.in.flows.feasible(t.in.net, rates); err != nil {
		t.fail("infeasible allocation: %v", err)
	}
}
