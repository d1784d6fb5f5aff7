package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeConfig shrinks every workload to about one hundredth: the same code
// paths, a fraction of a second each. Pass or fail depends only on the
// outputs' correctness, never on how long anything took.
func smokeConfig(t *testing.T, traced bool) runConfig {
	t.Helper()
	return runConfig{
		env:     runEnv{seed: 3, conns: 2, tmp: t.TempDir(), traced: traced},
		measure: 200 * time.Millisecond, setups: 2,
		traceDir: t.TempDir(),
		sim:      simMixSpec{hosts: 32, pool: 8, workers: []int{2}, variants: 1},
	}
}

// shrink swaps the live specs for small ones for the duration of a test.
func shrink(t *testing.T) {
	t.Helper()
	saved := make(map[string]liveSpec)
	for name, s := range liveSpecs {
		saved[name] = *s
		s.warmup = 40
		if name == "live-large" {
			s.hosts, s.admitLimit = 128, 8
			s.outstanding = func(c int) int { return max(1, 8/c) }
		}
	}
	t.Cleanup(func() {
		for name, s := range saved {
			*liveSpecs[name] = s
		}
	})
}

func TestSmokeEndToEnd(t *testing.T) {
	shrink(t)
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			res, err := runWorkload(wd.Name, smokeConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", res.correct, res.failed, res.attempted, res.failures)
			}
			for _, d := range endToEnd {
				v, ok := res.metrics[d.Name]
				if !ok {
					t.Errorf("metric %s missing", d.Name)
				}
				// The tail needs more samples than a smoke run has.
				if v <= 0 && d.Name != "latency_tail_ms" {
					t.Errorf("metric %s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	shrink(t)
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			cfg := smokeConfig(t, true)
			res, err := runWorkload(wd.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", res.correct, res.failed, res.attempted, res.failures)
			}
			for _, d := range perLayer {
				if _, ok := res.metrics[d.Name]; !ok {
					t.Errorf("metric %s missing", d.Name)
				}
			}
			m := res.metrics
			// (live-durable's batches often reschedule an empty active set, so
			// its fabric counters may legitimately stay at zero in a short run.)
			if m["sched.calls"] == 0 || m["trace.events"] == 0 || (m["fabric.flowlinks_calls"] == 0 && wd.Name != "live-durable") {
				t.Errorf("a layer saw no work: sched.calls=%v trace.events=%v fabric.flowlinks_calls=%v",
					m["sched.calls"], m["trace.events"], m["fabric.flowlinks_calls"])
			}
			switch wd.Name {
			case "live-durable":
				if m["journal.appends"] == 0 || m["journal.recovery_ms"] == 0 || m["coordinator.coalesced_events"] == 0 {
					t.Errorf("journal.appends=%v journal.recovery_ms=%v coordinator.coalesced_events=%v, want all > 0",
						m["journal.appends"], m["journal.recovery_ms"], m["coordinator.coalesced_events"])
				}
			case "sim-mix":
				if m["sim.flows"] == 0 || m["sim.sched_calls"] == 0 {
					t.Errorf("sim.flows=%v sim.sched_calls=%v, want > 0", m["sim.flows"], m["sim.sched_calls"])
				}
				fallthrough
			default:
				if m["journal.appends"] != 0 {
					t.Errorf("journal.appends=%v with the journal off", m["journal.appends"])
				}
			}
			trace, err := os.ReadFile(filepath.Join(cfg.traceDir, "trace-"+wd.Name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{`"name":"sched.`, `"self":`} {
				if !strings.Contains(string(trace), want) {
					t.Errorf("trace has no %s line", want)
				}
			}
			leftovers, _ := os.ReadDir(cfg.env.tmp)
			if len(leftovers) != 0 {
				t.Errorf("run left %d entries in its scratch directory", len(leftovers))
			}
		})
	}
}
