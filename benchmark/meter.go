package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// The traced run measures layers from outside, by wrapping the interfaces
// the program already accepts. Every wrapper here forwards its call
// untouched; meter_test.go holds them to bit-identical results.

// schedCall is one timed scheduler invocation.
type schedCall struct {
	start, end int64 // ns since the tracer epoch
	apply      bool  // Apply (delta path) rather than Schedule (full pass)
	ok         bool  // Apply: patch accepted; Schedule: no error
	flows      int
	replanned  int      // Apply: groups re-planned
	groups     []string // the delta's groups; for a fallback Schedule, the refused delta's
}

// maxRequestSamples bounds how many request sets the fabric probe replays.
const maxRequestSamples = 32

// requestSample is one scheduling snapshot's demand, kept for the fabric probe.
type requestSample struct {
	reqs []fabric.Request
	vols []fabric.VolumeDemand
}

// meteredSched times Schedule and forwards the handles the coordinator and
// simulator resolve by type assertion.
type meteredSched struct {
	inner sched.Scheduler
	epoch time.Time

	// The coordinator calls the scheduler under its own lock and the
	// simulator from one goroutine; mu only orders those calls against the
	// harness reading the log.
	mu      sync.Mutex
	calls   []schedCall
	refused []string // groups of the Apply that just fell back
	samples []requestSample
}

// meteredDelta is a meteredSched whose inner scheduler also implements
// sched.DeltaScheduler. A plain meteredSched must not satisfy that interface
// by accident, or the coordinator would call Apply on a full-pass scheduler.
type meteredDelta struct {
	*meteredSched
	delta   sched.DeltaScheduler
	outcome func() sched.DeltaOutcome // nil when the scheduler does not report one
}

// meter wraps s; the result implements sched.DeltaScheduler exactly when s does.
func meter(s sched.Scheduler, epoch time.Time) (sched.Scheduler, *meteredSched) {
	m := &meteredSched{inner: s, epoch: epoch}
	if ds, ok := s.(sched.DeltaScheduler); ok {
		md := &meteredDelta{meteredSched: m, delta: ds}
		if lo, ok := s.(interface{ LastOutcome() sched.DeltaOutcome }); ok {
			md.outcome = lo.LastOutcome
		}
		return md, m
	}
	return m, m
}

func (m *meteredSched) Name() string { return m.inner.Name() }

// PlanCache forwards the cache handle used for eager invalidation.
func (m *meteredSched) PlanCache() *sched.PlanCache {
	if pc, ok := m.inner.(interface{ PlanCache() *sched.PlanCache }); ok {
		return pc.PlanCache()
	}
	return nil
}

func (m *meteredSched) Schedule(snap *sched.Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	t0 := time.Since(m.epoch)
	rates, err := m.inner.Schedule(snap, net)
	t1 := time.Since(m.epoch)
	m.mu.Lock()
	m.calls = append(m.calls, schedCall{start: int64(t0), end: int64(t1), ok: err == nil,
		flows: len(snap.Flows), groups: m.refused})
	m.refused = nil
	m.sampleLocked(snap)
	m.mu.Unlock()
	return rates, err
}

// sampleLocked keeps the demand of every 64th call, up to the cap.
func (m *meteredSched) sampleLocked(snap *sched.Snapshot) {
	if len(m.calls)%64 != 1 || len(m.samples) >= maxRequestSamples || len(snap.Flows) == 0 {
		return
	}
	rs := requestSample{}
	for _, fs := range snap.Flows {
		rs.reqs = append(rs.reqs, fabric.Request{ID: fs.Flow.ID, Src: fs.Flow.Src, Dst: fs.Flow.Dst})
		rs.vols = append(rs.vols, fabric.VolumeDemand{Src: fs.Flow.Src, Dst: fs.Flow.Dst, Volume: fs.Remaining})
	}
	m.samples = append(m.samples, rs)
}

func (m *meteredDelta) Apply(snap *sched.Snapshot, net fabric.Fabric, d sched.Delta) (map[string]unit.Rate, bool, error) {
	t0 := time.Since(m.epoch)
	rates, ok, err := m.delta.Apply(snap, net, d)
	t1 := time.Since(m.epoch)
	c := schedCall{start: int64(t0), end: int64(t1), apply: true, ok: ok && err == nil,
		flows: len(snap.Flows), groups: d.Groups}
	if c.ok && m.outcome != nil {
		c.replanned = len(m.outcome().Replanned)
	}
	m.mu.Lock()
	m.calls = append(m.calls, c)
	if !c.ok {
		m.refused = d.Groups
	}
	m.sampleLocked(snap)
	m.mu.Unlock()
	return rates, ok, err
}

func (m *meteredDelta) Prime(snap *sched.Snapshot, net fabric.Fabric, rates map[string]unit.Rate) {
	m.delta.Prime(snap, net, rates)
}

// take returns and clears the call log (the warm-up's calls are dropped this
// way); request samples stay.
func (m *meteredSched) take() []schedCall {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.calls
	m.calls = nil
	return out
}

// striped is a counter spread over cache lines. The scheduler ranks groups
// on several goroutines at once, each calling the fabric millions of times a
// second; one shared atomic cost 70 ns a call to cache-line ping-pong, a
// stripe picked from the argument costs a few.
type striped [64]struct {
	n atomic.Int64
	_ [56]byte
}

func (s *striped) add(name string, salt int) {
	i := salt
	if len(name) > 0 {
		i ^= int(name[len(name)-1]) ^ len(name)<<3
	}
	s[i&63].n.Add(1)
}

func (s *striped) load() int64 {
	var sum int64
	for i := range s {
		sum += s[i].n.Load()
	}
	return sum
}

// countingFabric counts the scheduler's hot fabric calls. No timers: these
// run thousands of times per pass and a clock read would dwarf them.
type countingFabric struct {
	fabric.Fabric
	flowLinks, linkCaps striped
	residuals           atomic.Int64
}

func (c *countingFabric) FlowLinks(src, dst string, buf []fabric.LinkKey) []fabric.LinkKey {
	c.flowLinks.add(src, 0)
	return c.Fabric.FlowLinks(src, dst, buf)
}

func (c *countingFabric) LinkCapacity(k fabric.LinkKey) unit.Rate {
	c.linkCaps.add(k.Name, int(k.Kind)<<4)
	return c.Fabric.LinkCapacity(k)
}

func (c *countingFabric) NewResidual() *fabric.Residual {
	c.residuals.Add(1)
	return c.Fabric.NewResidual()
}

// placeCall is one timed placement decision.
type placeCall struct {
	start, end int64
	job        string
}

// timedPlacer times queue.Placer.Place. Name is forwarded because the
// coordinator labels job-tardiness histograms with it.
type timedPlacer struct {
	inner queue.Placer
	epoch time.Time
	mu    sync.Mutex
	calls []placeCall
}

func (p *timedPlacer) Name() string { return p.inner.Name() }

func (p *timedPlacer) Place(spec wire.JobSpec, v *queue.View) ([]string, error) {
	t0 := time.Since(p.epoch)
	hosts, err := p.inner.Place(spec, v)
	t1 := time.Since(p.epoch)
	p.mu.Lock()
	p.calls = append(p.calls, placeCall{int64(t0), int64(t1), spec.ID})
	p.mu.Unlock()
	return hosts, err
}

func (p *timedPlacer) take() []placeCall {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.calls
	p.calls = nil
	return out
}

// countingConn counts the bytes a tenant connection carries.
type countingConn struct {
	net.Conn
	sent, recv *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.recv.Add(int64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.sent.Add(int64(n))
	return n, err
}
