package main

import "encoding/json"

// metricDef is one row of BENCHMARK.json. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics a user of the control plane sees. Every workload
// reports every one of them; what "event" and "latency" mean per workload is
// in README.md.
var endToEnd = []metricDef{
	{"events_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, layer = module name.
var perLayer = []metricDef{
	{Name: "coordinator.event_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "coordinator.resched_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "coordinator.reschedules", Unit: "count", Better: "lower"},
	{Name: "coordinator.coalesced_events", Unit: "count", Better: "higher"},
	{Name: "coordinator.coalesce_batches", Unit: "count", Better: "lower"},
	{Name: "coordinator.rates_computed", Unit: "count", Better: "lower"},
	{Name: "coordinator.rates_pushed", Unit: "count", Better: "lower"},
	{Name: "coordinator.push_ratio", Unit: "ratio", Better: "lower"},
	{Name: "coordinator.inbound_depth_max", Unit: "count", Better: "lower"},
	{Name: "coordinator.send_overflow", Unit: "count", Better: "lower"},
	{Name: "coordinator.resched_errors", Unit: "count", Better: "lower"},

	{Name: "sched.calls", Unit: "count", Better: "lower"},
	{Name: "sched.full_calls", Unit: "count", Better: "lower"},
	{Name: "sched.delta_calls", Unit: "count", Better: "higher"},
	{Name: "sched.delta_fallbacks", Unit: "count", Better: "lower"},
	{Name: "sched.delta_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.busy_s", Unit: "s", Better: "lower"},
	{Name: "sched.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.delta_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.full_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.call_us_tail", Unit: "us", Better: "lower"},
	{Name: "sched.flows_per_call_mean", Unit: "count", Better: "higher"},
	{Name: "sched.replanned_groups_mean", Unit: "count", Better: "lower"},
	{Name: "sched.plancache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "fabric.flowlinks_calls", Unit: "count", Better: "lower"},
	{Name: "fabric.linkcap_calls", Unit: "count", Better: "lower"},
	{Name: "fabric.residual_news", Unit: "count", Better: "lower"},
	{Name: "fabric.maxmin_us_p50", Unit: "us", Better: "lower"},
	{Name: "fabric.greedyfill_us_p50", Unit: "us", Better: "lower"},
	{Name: "fabric.bottleneck_us_p50", Unit: "us", Better: "lower"},
	{Name: "fabric.residual_us_p50", Unit: "us", Better: "lower"},

	{Name: "queue.submitted", Unit: "count", Better: "higher"},
	{Name: "queue.admitted", Unit: "count", Better: "higher"},
	{Name: "queue.rejected", Unit: "count", Better: "lower"},
	{Name: "queue.throttled", Unit: "count", Better: "lower"},
	{Name: "queue.depth_max", Unit: "count", Better: "lower"},
	{Name: "queue.place_calls", Unit: "count", Better: "higher"},
	{Name: "queue.place_us_p50", Unit: "us", Better: "lower"},
	{Name: "queue.build_us_p50", Unit: "us", Better: "lower"},
	{Name: "queue.admit_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "queue.admit_wait_p95_ms", Unit: "ms", Better: "lower"},

	{Name: "journal.appends", Unit: "count", Better: "lower"},
	{Name: "journal.append_us_mean", Unit: "us", Better: "lower"},
	{Name: "journal.snapshots", Unit: "count", Better: "lower"},
	{Name: "journal.wal_bytes", Unit: "B", Better: "lower"},
	{Name: "journal.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "journal.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "journal.append_fsync_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.append_group_us_p50", Unit: "us", Better: "lower"},
	{Name: "journal.recovery_ms", Unit: "ms", Better: "lower"},

	{Name: "wire.msgs_sent", Unit: "count", Better: "lower"},
	{Name: "wire.msgs_recv", Unit: "count", Better: "lower"},
	{Name: "wire.alloc_entries_recv", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_recv", Unit: "B", Better: "lower"},
	{Name: "wire.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},

	{Name: "sim.sched_calls", Unit: "count", Better: "lower"},
	{Name: "sim.new_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.self_s", Unit: "s", Better: "lower"},
	{Name: "sim.flows", Unit: "count", Better: "higher"},
	{Name: "sim.nodes", Unit: "count", Better: "higher"},
	{Name: "sim.total_tardiness_s", Unit: "s", Better: "lower"},
	{Name: "sim.makespan_s", Unit: "s", Better: "lower"},
	{Name: "ddlt.build_ms", Unit: "ms", Better: "lower"},

	{Name: "process.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "process.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "higher"},
	{Name: "trace.elapsed_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// workloadDef is one BENCHMARK.json workload row.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"live-small", "16 hosts, ~10 active flows, every event fenced: scheduling is nearly free, so the coordinator pipeline (session I/O, lock, snapshot, broadcast, wire) carries the latency"},
	{"live-large", "1024-host oversubscribed leaf-spine, netaware placement, ~400 active flows, fenced: whatever is O(active flows) or O(hosts) per event shows here; wire and journal do almost nothing"},
	{"live-durable", "journal with group-commit and compaction, 2 ms coalescing, streamed flow_batch frames against a real admission queue: the batch paths that the fenced workloads bypass"},
	{"sim-mix", "no coordinator, wire, journal or queue: all seven paradigms through the simulator on both fabrics with full-pass scheduling; the simulated outcome must stay bit-identical across repetitions"},
}

// runSeconds is how long one run measures.
const runSeconds = 20

// manifest is BENCHMARK.json; manifest_test.go keeps the file equal to it.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []perLayerDef `json:"per_layer"`
}

// perLayerDef is a metricDef without the bound key, which the contract does
// not allow on per-layer rows.
type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func manifestJSON() []byte {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // a static table of strings and floats cannot fail to marshal
	}
	return append(b, '\n')
}
