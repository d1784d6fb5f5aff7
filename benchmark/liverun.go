package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"echelonflow/internal/coordinator"
	"echelonflow/internal/fabric"
	"echelonflow/internal/journal"
	"echelonflow/internal/queue"
	"echelonflow/internal/wire"
)

// procSnap is the process-wide accounting read before and after a measured
// phase.
type procSnap struct {
	cpu     time.Duration // user+sys
	mallocs uint64
	bytes   uint64
	pauseNS uint64
	numGC   uint32
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNS: ms.PauseTotalNs, numGC: ms.NumGC,
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase is what one measured phase of any workload yields; every metric is
// derived from it.
//
// The end-to-end figures are whole-phase figures: events over elapsed time,
// CPU over events, percentiles over every latency sample. Per-event cost
// varies up to twofold with the job mix of the moment (the pattern repeats
// exactly for a seed), so any figure taken from part of the phase measures
// which jobs were running then; over the whole phase every seed plays the
// same deck of job structures (gen.go) and the figures agree.
type phase struct {
	elapsed  time.Duration
	events   int     // flow events acknowledged (live) or simulated (sim-mix)
	ops      int     // operations attempted: events plus submissions
	lat      samples // ms: the workload's caller-visible wait
	waits    samples // ms: submit_job -> admitted
	builds   samples // us: client-side queue.Build
	before   procSnap
	after    procSnap
	failures []string
	failed   int
	layer    map[string]float64 // traced run only
	tree     *spanTree          // traced run only
}

func (p *phase) eventsPerS() float64 { return float64(p.events) / p.elapsed.Seconds() }

func (p *phase) cpuUSPerEvent() float64 {
	return float64((p.after.cpu - p.before.cpu).Microseconds()) / float64(max(p.events, 1))
}

func (p *phase) failf(format string, args ...interface{}) {
	p.failed++
	if len(p.failures) < 16 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// regCounters are the registry families the traced run reports as deltas
// over the measured phase.
var regCounters = map[string]string{
	"coordinator.reschedules":      coordinator.MetricReschedules,
	"coordinator.coalesced_events": coordinator.MetricCoalescedEvents,
	"coordinator.coalesce_batches": coordinator.MetricCoalesceBatches,
	"coordinator.rates_computed":   coordinator.MetricRatesComputed,
	"coordinator.rates_pushed":     coordinator.MetricRatesPushed,
	"coordinator.send_overflow":    coordinator.MetricSendOverflow,
	"coordinator.resched_errors":   coordinator.MetricRescheduleErrors,
	"journal.snapshots":            coordinator.MetricJournalSnapshots,
	"queue.submitted":              coordinator.MetricJobsSubmitted,
	"queue.admitted":               coordinator.MetricJobsAdmitted,
	"queue.rejected":               coordinator.MetricJobsRejected,
	"queue.throttled":              coordinator.MetricJobsThrottled,
}

// regSnap reads the counters above plus the two histograms' count and sum.
type regSnap struct {
	counters                   map[string]float64
	reschedN, appendN          uint64
	reschedSum, appendSum      float64
	cacheHits, cacheMisses     uint64
	flowLinks, linkCaps, resid int64
	bytesSent, bytesRecv       int64
}

func (in *liveInstance) readMeters() regSnap {
	m := in.meters
	s := regSnap{counters: make(map[string]float64)}
	for name, fam := range regCounters {
		s.counters[name] = float64(m.reg.Counter(fam, "").Value())
	}
	h := m.reg.Histogram(coordinator.MetricRescheduleLat, "")
	s.reschedN, s.reschedSum = h.Count(), h.Sum()
	h = m.reg.Histogram(coordinator.MetricJournalFsyncLat, "")
	s.appendN, s.appendSum = h.Count(), h.Sum()
	cs := in.cache.Stats()
	s.cacheHits, s.cacheMisses = cs.Hits, cs.Misses
	s.flowLinks, s.linkCaps, s.resid = m.fab.flowLinks.load(), m.fab.linkCaps.load(), m.fab.residuals.Load()
	s.bytesSent, s.bytesRecv = m.bytesSent.Load(), m.bytesRecv.Load()
	return s
}

// measure runs the measured phase on a warmed-up instance for d.
func (in *liveInstance) measure(d time.Duration) (*phase, error) {
	for _, t := range in.tenants {
		t.events, t.submits, t.fences, t.msgsSent = 0, 0, 0, 0
		t.lat, t.waits, t.builds = samples{}, samples{}, samples{}
		t.eventRecs, t.jobRecs = nil, nil
		t.measuring = true
		t.msgsRecv.Store(0)
		t.allocEntries.Store(0)
		t.recording.Store(in.meters != nil)
	}
	var base regSnap
	if m := in.meters; m != nil {
		m.sched.take()
		m.placer.take()
		m.inboundMax.Store(0)
		m.depthMax.Store(0)
		base = in.readMeters()
	}
	p := &phase{before: readProc()}
	start := time.Now()
	deadline := start.Add(d)
	err := in.drive(func(*tenant) bool { return !time.Now().Before(deadline) })
	p.after = readProc()
	end := start
	for _, t := range in.tenants {
		if t.ended.After(end) {
			end = t.ended
		}
		p.events += t.events
		p.ops += t.events + t.submits
		p.lat.xs = append(p.lat.xs, t.lat.xs...)
		p.waits.xs = append(p.waits.xs, t.waits.xs...)
		p.builds.xs = append(p.builds.xs, t.builds.xs...)
		for _, f := range t.failures {
			p.failf("%s", f)
		}
		for n := t.wireErrors.Load(); n > 0; n-- {
			p.failf("tenant %d: error frame from the coordinator", t.idx)
		}
	}
	p.elapsed = end.Sub(start)
	in.logs.mu.Lock()
	for _, l := range in.logs.lines {
		p.failf("coordinator log: %s", l)
	}
	in.logs.mu.Unlock()
	if err != nil {
		p.failf("driver: %v", err)
	}
	if in.meters != nil {
		in.layerMetrics(p, base)
	}
	return p, nil
}

// layerMetrics fills the per-layer metrics and the span tree of a traced
// phase. base is the meter reading at the phase's start.
func (in *liveInstance) layerMetrics(p *phase, base regSnap) {
	m := in.meters
	now := in.readMeters()
	L := make(map[string]float64)
	p.layer = L
	events := float64(max(p.events, 1))
	for name := range regCounters {
		L[name] = now.counters[name] - base.counters[name]
	}
	if n := now.reschedN - base.reschedN; n > 0 {
		L["coordinator.resched_ms_mean"] = (now.reschedSum - base.reschedSum) / float64(n) * 1e3
	}
	if c := L["coordinator.rates_computed"]; c > 0 {
		L["coordinator.push_ratio"] = L["coordinator.rates_pushed"] / c
	}
	L["coordinator.inbound_depth_max"] = float64(m.inboundMax.Load())
	L["queue.depth_max"] = float64(m.depthMax.Load())

	calls := m.sched.take()
	schedMetrics(L, calls, p.elapsed)
	if h, ms := now.cacheHits-base.cacheHits, now.cacheMisses-base.cacheMisses; h+ms > 0 {
		L["sched.plancache_hit_ratio"] = float64(h) / float64(h+ms)
	}

	L["fabric.flowlinks_calls"] = float64(now.flowLinks - base.flowLinks)
	L["fabric.linkcap_calls"] = float64(now.linkCaps - base.linkCaps)
	L["fabric.residual_news"] = float64(now.resid - base.resid)
	probeFabric(L, m.fab.Fabric, m.sched.samples)

	places := m.placer.take()
	var placeUS samples
	for _, c := range places {
		placeUS.add(float64(c.end-c.start) / 1e3)
	}
	L["queue.place_calls"] = float64(len(places))
	L["queue.place_us_p50"] = placeUS.median()
	L["queue.build_us_p50"] = p.builds.median()
	L["queue.admit_wait_p50_ms"] = p.waits.median()
	if v, err := p.waits.percentile(0.95); err == nil {
		L["queue.admit_wait_p95_ms"] = v
	}

	appends := now.appendN - base.appendN
	L["journal.appends"] = float64(appends)
	if appends > 0 {
		L["journal.append_us_mean"] = (now.appendSum - base.appendSum) / float64(appends) * 1e6
	}
	if !in.spec.journal && appends != 0 {
		p.failf("journal is off but %d appends were recorded", appends)
	}

	var sent, recv []wire.Message
	for _, t := range in.tenants {
		L["wire.msgs_sent"] += float64(t.msgsSent)
		L["wire.msgs_recv"] += float64(t.msgsRecv.Load())
		L["wire.alloc_entries_recv"] += float64(t.allocEntries.Load())
		sent = append(sent, t.sentSample...)
		t.recMu.Lock()
		recv = append(recv, t.recvSample...)
		t.recMu.Unlock()
	}
	L["wire.bytes_sent"] = float64(now.bytesSent - base.bytesSent)
	L["wire.bytes_recv"] = float64(now.bytesRecv - base.bytesRecv)
	L["wire.bytes_per_event"] = (L["wire.bytes_sent"] + L["wire.bytes_recv"]) / events
	probeWire(L, append(sent, recv...))

	p.tree = in.assemble(p, calls, places, L)
}

// schedMetrics derives the sched.* metrics from a call log.
func schedMetrics(L map[string]float64, calls []schedCall, elapsed time.Duration) {
	var deltaUS, fullUS, allUS samples
	var busy int64
	var flows, replanned, applied, fallbacks, full float64
	for _, c := range calls {
		us := float64(c.end-c.start) / 1e3
		busy += c.end - c.start
		allUS.add(us)
		flows += float64(c.flows)
		switch {
		case !c.apply:
			full++
			fullUS.add(us)
		case c.ok:
			applied++
			deltaUS.add(us)
			replanned += float64(c.replanned)
		default:
			fallbacks++
		}
	}
	L["sched.calls"] = float64(len(calls))
	L["sched.full_calls"] = full
	L["sched.delta_calls"] = applied + fallbacks
	L["sched.delta_fallbacks"] = fallbacks
	if applied+fallbacks > 0 {
		L["sched.delta_hit_ratio"] = applied / (applied + fallbacks)
	}
	L["sched.busy_s"] = float64(busy) / 1e9
	L["sched.busy_share"] = float64(busy) / float64(elapsed.Nanoseconds())
	L["sched.delta_us_p50"] = deltaUS.median()
	L["sched.full_us_p50"] = fullUS.median()
	if _, v, ok := allUS.highestTail(); ok {
		L["sched.call_us_tail"] = v
	}
	if n := float64(len(calls)); n > 0 {
		L["sched.flows_per_call_mean"] = flows / n
	}
	if applied > 0 {
		L["sched.replanned_groups_mean"] = replanned / applied
	}
}

// probeFabric times the fabric's allocation primitives on request sets
// sampled from the run's own scheduling snapshots, on the bare fabric.
func probeFabric(L map[string]float64, net fabric.Fabric, sets []requestSample) {
	var maxmin, greedy, bottleneck, residual samples
	timeIt := func(s *samples, f func()) {
		t0 := time.Now()
		f()
		s.add(us(time.Since(t0)))
	}
	for _, rs := range sets {
		for rep := 0; rep < 5; rep++ {
			timeIt(&maxmin, func() { _, _ = net.MaxMin(rs.reqs) })
			timeIt(&greedy, func() { _, _ = net.GreedyFill(rs.reqs) })
			timeIt(&bottleneck, func() { _, _ = net.BottleneckTime(rs.vols) })
			timeIt(&residual, func() { _ = net.NewResidual() })
		}
	}
	L["fabric.maxmin_us_p50"] = maxmin.median()
	L["fabric.greedyfill_us_p50"] = greedy.median()
	L["fabric.bottleneck_us_p50"] = bottleneck.median()
	L["fabric.residual_us_p50"] = residual.median()
}

// probeWire replays the sampled message stream through a wire.Codec over an
// in-memory buffer: every message encoded, then every frame decoded.
func probeWire(L map[string]float64, msgs []wire.Message) {
	if len(msgs) == 0 {
		return
	}
	var buf bytes.Buffer
	c := wire.NewCodec(&buf)
	c.EnableBinary()
	t0 := time.Now()
	n := 0
	for _, m := range msgs {
		if c.Send(m) == nil {
			n++
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, err := c.Recv(); err != nil {
			return
		}
	}
	dec := time.Since(t0)
	L["wire.encode_ns_per_msg"] = float64(enc.Nanoseconds()) / float64(n)
	L["wire.decode_ns_per_msg"] = float64(dec.Nanoseconds()) / float64(n)
}

// assemble builds the span tree of a traced live phase: job spans with
// admit_wait and execute children, event spans under their job's execute
// span, sched spans under the event in flight on the group they touched,
// and queue.place spans under the job they placed.
func (in *liveInstance) assemble(p *phase, calls []schedCall, places []placeCall, L map[string]float64) *spanTree {
	tr := &spanTree{}
	execOf := make(map[string]uint64)
	jobOf := make(map[string]uint64)
	for _, t := range in.tenants {
		for _, j := range t.jobRecs {
			id := tr.add("job", 0, 0, j.submit, j.depart, j.id)
			jobOf[j.id] = id
			tr.add("admit_wait", id, id, j.submit, j.admit, "")
			execOf[j.id] = tr.add("execute", id, id, j.admit, j.depart, "")
		}
	}
	// eventIDs[tenant][i] is the span of that tenant's i-th event.
	eventIDs := make([][]uint64, len(in.tenants))
	for ti, t := range in.tenants {
		eventIDs[ti] = make([]uint64, len(t.eventRecs))
		for i, e := range t.eventRecs {
			eventIDs[ti][i] = tr.add("event", execOf[e.job], jobOf[e.job], e.start, e.end, e.group)
		}
	}
	// A scheduler call belongs to the event that was in flight when it
	// started and touched one of the call's groups (a streamed job's single
	// span has no group and matches by time alone).
	schedNS := make(map[uint64]int64)
	for _, c := range calls {
		name := "sched.schedule"
		if c.apply {
			name = "sched.apply"
		}
		var parent, trace uint64
		for ti, t := range in.tenants {
			i := sort.Search(len(t.eventRecs), func(i int) bool { return t.eventRecs[i].end >= c.start })
			if i == len(t.eventRecs) || t.eventRecs[i].start > c.start {
				continue
			}
			if g := t.eventRecs[i].group; g == "" || slices.Contains(c.groups, g) {
				parent, trace = eventIDs[ti][i], jobOf[t.eventRecs[i].job]
				break
			}
		}
		tr.add(name, parent, trace, c.start, c.end, "")
		schedNS[parent] += c.end - c.start
	}
	for _, c := range places {
		tr.add("queue.place", jobOf[c.job], jobOf[c.job], c.start, c.end, c.job)
	}
	if !in.spec.streamed {
		var self samples
		for ti, t := range in.tenants {
			for i, e := range t.eventRecs {
				self.add(float64(e.end-e.start-schedNS[eventIDs[ti][i]]) / 1e3)
			}
		}
		L["coordinator.event_self_us_p50"] = self.median()
	}
	return tr
}

// journalFacts stats the journal directory and samples the record sizes of
// its tail, then probes journal.Append under both commit policies with
// payloads of those sizes.
func journalFacts(L map[string]float64, dir, tmp string, events int) error {
	for metric, file := range map[string]string{"journal.wal_bytes": "wal", "journal.snapshot_bytes": "snapshot"} {
		if info, err := os.Stat(filepath.Join(dir, file)); err == nil {
			L[metric] = float64(info.Size())
		}
	}
	rec, err := journal.Restore(dir)
	if err != nil {
		return err
	}
	var payloads [][]byte
	var total int
	for _, r := range rec.Tail {
		payloads = append(payloads, r)
		total += len(r)
	}
	if len(payloads) == 0 {
		return nil
	}
	L["journal.bytes_per_event"] = float64(total) / float64(len(payloads)) * L["journal.appends"] / float64(max(events, 1))
	for _, mode := range []struct {
		metric string
		window time.Duration
		n      int
	}{{"journal.append_fsync_us_p50", 0, 48}, {"journal.append_group_us_p50", 5 * time.Millisecond, 512}} {
		pdir, err := os.MkdirTemp(tmp, "jprobe-")
		if err != nil {
			return err
		}
		j, err := journal.Open(pdir)
		if err == nil && mode.window > 0 {
			err = j.SetGroupCommit(mode.window, 0)
		}
		if err != nil {
			os.RemoveAll(pdir)
			return err
		}
		var lat samples
		for i := 0; i < mode.n; i++ {
			t0 := time.Now()
			if err := j.Append(payloads[i%len(payloads)]); err != nil {
				break
			}
			lat.add(us(time.Since(t0)))
		}
		j.Close()
		os.RemoveAll(pdir)
		L[mode.metric] = lat.median()
	}
	return nil
}

// timeRecovery times coordinator.Restore of a closed run's journal
// directory n times. Restore compacts what it replays, so each repetition
// restores a fresh copy of the directory as the run left it.
func timeRecovery(spec *liveSpec, dir, tmp string, n int) (samples, error) {
	var took samples
	for i := 0; i < n; i++ {
		d, err := restoreOnce(spec, dir, tmp)
		if err != nil {
			return took, err
		}
		took.add(ms(d))
	}
	return took, nil
}

func restoreOnce(spec *liveSpec, dir, tmp string) (time.Duration, error) {
	copyDir, err := os.MkdirTemp(tmp, "recover-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(copyDir)
	if err := copyTree(dir, copyDir); err != nil {
		return 0, err
	}
	netw, err := buildFabric(spec.fabric, spec.hosts)
	if err != nil {
		return 0, err
	}
	placer, err := queue.PlacerByName(spec.placement)
	if err != nil {
		return 0, err
	}
	scheduler, _ := newScheduler()
	opts := spec.options(netw, scheduler, placer, func(string, ...interface{}) {})
	t0 := time.Now()
	c, err := coordinator.Restore(opts, copyDir)
	took := time.Since(t0)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if _, running := c.QueueDepth(); running == 0 {
		return 0, fmt.Errorf("restore recovered no admitted job")
	}
	return took, nil
}

func copyTree(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
