package main

import (
	"fmt"
	"path/filepath"
	"time"

	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
)

// setups is how many times (at least) a run sets its workload up; setup_s is
// their median, which a single noisy set-up cannot move.
const setups = 5

// recoveries is how many times the traced live-durable run times Restore.
const recoveries = 20

// runResult is one run of one workload.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64 // end-to-end (untraced) or per-layer (traced)
	failures  []string
	report    []string // human-readable lines
}

// runConfig parameterises a run; the smoke tests shrink it.
type runConfig struct {
	env     runEnv
	measure time.Duration
	setups  int
	// strict makes a tail percentile without enough samples an error rather
	// than a zero: the full-size run must be able to report every metric.
	strict   bool
	traceDir string // where the traced run writes trace-<workload>.jsonl
	sim      simMixSpec
}

// workload abstracts the four workloads: set one instance up (timed), run a
// measured phase on it, tear it down.
type workload interface {
	// setUp builds a warmed-up instance and reports how long that took.
	setUp(env runEnv) (instance, time.Duration, error)
	// tailQ is the percentile latency_tail_ms reports for this workload.
	tailQ() float64
}

type instance interface {
	measure(d time.Duration) (*phase, error)
	// finish tears the instance down and, on a traced instance, completes the
	// per-layer metrics that need the stopped program (journal, recovery).
	finish(p *phase) error
}

func workloadByName(name string, cfg runConfig) (workload, error) {
	if name == "sim-mix" {
		return simWorkload{cfg.sim}, nil
	}
	if spec, ok := liveSpecs[name]; ok {
		return liveWorkload{spec}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type liveWorkload struct{ spec *liveSpec }

func (w liveWorkload) tailQ() float64 { return w.spec.tailQ }

func (w liveWorkload) setUp(env runEnv) (instance, time.Duration, error) {
	in, err := setUpLive(w.spec, env)
	if err != nil {
		return nil, 0, err
	}
	return in, in.setup, nil
}

// finish implements instance. live-durable is closed with jobs still
// admitted, so the journal it leaves is what Restore is timed on.
func (in *liveInstance) finish(p *phase) error {
	in.tearDown()
	defer in.removeJournal()
	if p == nil || in.meters == nil || !in.spec.journal {
		return nil
	}
	if err := journalFacts(p.layer, in.jdir, in.env.tmp, p.events); err != nil {
		return err
	}
	ms, err := timeRecovery(in.spec, in.jdir, in.env.tmp, recoveries)
	if err != nil {
		return err
	}
	p.layer["journal.recovery_ms"] = ms.median()
	return nil
}

// runWorkload runs one workload once. Untraced, it sets up cfg.setups times,
// measures for cfg.measure on the last instance and reports the end-to-end
// metrics. Traced, it spends a quarter of cfg.measure on an untraced
// baseline and the rest on an instance with the registry and wrappers on,
// and reports the per-layer metrics.
func runWorkload(name string, cfg runConfig) (*runResult, error) {
	w, err := workloadByName(name, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.env.traced {
		return runTraced(name, w, cfg)
	}
	env := cfg.env
	var setupS samples
	var in instance
	// A set-up of tens of milliseconds is noisy: keep setting up, to three
	// times the usual count, until set-ups have had 1.5 s between them.
	for i := 0; i < cfg.setups || (i < 3*cfg.setups && setupS.sum() < 1.5); i++ {
		if in != nil {
			if err := in.finish(nil); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		if in, d, err = w.setUp(env); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS.add(d.Seconds())
	}
	p, err := in.measure(cfg.measure)
	if ferr := in.finish(p); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	res := newResult(p)
	tail, err := p.lat.percentile(w.tailQ())
	if err != nil && cfg.strict {
		return nil, fmt.Errorf("%s: latency tail: %w", name, err)
	}
	res.metrics = map[string]float64{
		"setup_s":          setupS.median(),
		"events_per_s":     p.eventsPerS(),
		"latency_p50_ms":   p.lat.median(),
		"latency_tail_ms":  tail,
		"cpu_us_per_event": p.cpuUSPerEvent(),
		"peak_rss_mb":      peakRSSMB(),
	}
	res.report = append(res.report,
		fmt.Sprintf("%s: %d events in %.2fs; latency %s; latency_tail_ms is p%g; setup_s is the median of %d set-ups",
			name, p.events, p.elapsed.Seconds(), p.lat.describe("ms"), w.tailQ()*100, setupS.n()))
	return res, nil
}

func newResult(p *phase) *runResult {
	return &runResult{correct: p.failed == 0 && p.events > 0,
		attempted: max(p.ops, 1), failed: p.failed, failures: p.failures}
}

func runTraced(name string, w workload, cfg runConfig) (*runResult, error) {
	env := cfg.env
	env.traced = false
	base, _, err := w.setUp(env)
	if err != nil {
		return nil, fmt.Errorf("baseline set-up: %w", err)
	}
	bp, err := base.measure(cfg.measure / 4)
	if ferr := base.finish(nil); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}

	env.traced = true
	in, _, err := w.setUp(env)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	p, err := in.measure(cfg.measure - cfg.measure/4)
	if ferr := in.finish(p); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	for _, f := range bp.failures {
		p.failf("baseline: %s", f)
	}
	p.failed += bp.failed - len(bp.failures)

	L := p.layer
	events := float64(max(p.events, 1))
	L["process.allocs_per_event"] = float64(p.after.mallocs-p.before.mallocs) / events
	L["process.alloc_bytes_per_event"] = float64(p.after.bytes-p.before.bytes) / events
	L["process.gc_pause_ms_total"] = float64(p.after.pauseNS-p.before.pauseNS) / 1e6
	L["process.gc_cycles"] = float64(p.after.numGC - p.before.numGC)
	L["trace.events"] = float64(p.events)
	L["trace.elapsed_s"] = p.elapsed.Seconds()
	if b := bp.eventsPerS(); b > 0 {
		L["trace.overhead_ratio"] = p.eventsPerS() / b
	}

	res := newResult(p)
	res.metrics = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		res.metrics[d.Name] = L[d.Name]
	}
	if p.tree != nil {
		path := filepath.Join(cfg.traceDir, "trace-"+name+".jsonl")
		if err := p.tree.write(path); err != nil {
			return nil, err
		}
		res.report = append(res.report, fmt.Sprintf("%s: %d spans -> %s", name, len(p.tree.spans), path))
		for _, ls := range p.tree.selfTimes() {
			res.report = append(res.report, fmt.Sprintf("  self %-15s n=%-7d total=%9.3fms self=%9.3fms",
				ls.name, ls.count, float64(ls.totalNS)/1e6, float64(ls.selfNS)/1e6))
		}
	}
	res.report = append(res.report, fmt.Sprintf("%s: traced %.0f events/s, untraced baseline %.0f events/s",
		name, p.eventsPerS(), bp.eventsPerS()))
	return res, nil
}

// simWorkload is sim-mix.
type simWorkload struct{ spec simMixSpec }

func (simWorkload) tailQ() float64 { return 0.75 }

// simInstance is a compiled mix with the outcome every repetition must
// reproduce.
type simInstance struct {
	mix    *simMix
	ref    []simOutcome // per fabric, from the warm-up repetition
	traced bool
	epoch  time.Time
}

// setUp compiles the mix, builds both fabrics and runs one warm-up
// repetition, whose outcome becomes the reference.
func (w simWorkload) setUp(env runEnv) (instance, time.Duration, error) {
	t0 := time.Now()
	mix, err := buildSimMix(env.seed, w.spec)
	if err != nil {
		return nil, 0, err
	}
	in := &simInstance{mix: mix, traced: env.traced, epoch: t0}
	for _, net := range mix.nets {
		out, _, _, err := mix.runOnce(net, nil)
		if err != nil {
			return nil, 0, err
		}
		in.ref = append(in.ref, out)
	}
	return in, time.Since(t0), nil
}

func (in *simInstance) finish(*phase) error { return nil }

// measure repeats the mix — a fresh simulator, scheduler and plan cache on
// each fabric in turn — until d has passed. One repetition (both fabrics) is
// one latency sample; every repetition must reproduce the reference outcome
// bit for bit.
func (in *simInstance) measure(d time.Duration) (*phase, error) {
	p := &phase{before: readProc()}
	var calls []schedCall
	var sets []requestSample
	var newMS samples
	var fabricCalls [3]int64 // FlowLinks, LinkCapacity, NewResidual in one repetition
	tree := &spanTree{}
	reps := 0
	start := time.Now()
	for ; reps == 0 || time.Since(start) < d; reps++ {
		var pair time.Duration
		for i, net := range in.mix.nets {
			var met *meteredSched
			var fab *countingFabric
			var wrap func(sched.Scheduler, fabric.Fabric) (sched.Scheduler, fabric.Fabric)
			if in.traced {
				wrap = func(s sched.Scheduler, n fabric.Fabric) (sched.Scheduler, fabric.Fabric) {
					s, met = meter(s, in.epoch)
					if reps > 0 {
						return s, n
					}
					// The simulator calls LinkCapacity ten million times a
					// second, where even a striped counter costs a sixth of
					// the run. The run is deterministic, so the first
					// repetition's counts are every repetition's.
					fab = &countingFabric{Fabric: n}
					return s, fab
				}
			}
			t0 := time.Since(in.epoch)
			out, tNew, total, err := in.mix.runOnce(net, wrap)
			if err != nil {
				return nil, err
			}
			pair += total
			newMS.add(ms(tNew))
			p.events += 2 * in.mix.flows
			if out != in.ref[i] {
				p.failf("sim-mix repetition %d on %s: outcome %+v differs from the first run's %+v",
					reps, simFabrics[i], out, in.ref[i])
			}
			if met != nil {
				id := tree.add("sim.run", 0, 0, int64(t0), int64(t0+total), simFabrics[i])
				for _, c := range met.calls {
					tree.add("sched.schedule", id, id, c.start, c.end, "")
				}
				calls = append(calls, met.calls...)
				if len(sets) < maxRequestSamples {
					sets = append(sets, met.samples...)
				}
			}
			if fab != nil {
				fabricCalls[0] += fab.flowLinks.load()
				fabricCalls[1] += fab.linkCaps.load()
				fabricCalls[2] += fab.residuals.Load()
			}
		}
		p.lat.add(ms(pair))
	}
	p.elapsed = time.Since(start)
	p.after = readProc()
	p.ops = p.events
	if in.traced {
		L := make(map[string]float64)
		p.layer, p.tree = L, tree
		schedMetrics(L, calls, p.elapsed)
		L["fabric.flowlinks_calls"] = float64(fabricCalls[0] * int64(reps))
		L["fabric.linkcap_calls"] = float64(fabricCalls[1] * int64(reps))
		L["fabric.residual_news"] = float64(fabricCalls[2] * int64(reps))
		probeFabric(L, in.mix.nets[len(in.mix.nets)-1], sets)
		L["sim.new_ms"] = newMS.median()
		L["sim.self_s"] = p.elapsed.Seconds() - L["sched.busy_s"]
		L["sim.flows"] = float64(in.mix.flows)
		L["sim.nodes"] = float64(in.mix.nodes)
		L["ddlt.build_ms"] = in.mix.buildMS
		for _, o := range in.ref {
			L["sim.sched_calls"] += float64(o.schedCalls)
			L["sim.total_tardiness_s"] += o.tardiness
			L["sim.makespan_s"] += o.makespan
		}
	}
	return p, nil
}
