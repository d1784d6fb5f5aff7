package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func writeRuns(t *testing.T, name string, eps []float64, failed int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for i, v := range eps {
		r := savedRun{Workload: "live-small", Seed: int64(i + 1), Failed: failed, Metrics: map[string]float64{
			"events_per_s": v, "latency_p50_ms": 1, "latency_tail_ms": 2, "cpu_us_per_event": 3, "peak_rss_mb": 4, "setup_s": 5,
		}}
		if err := appendRun(path, r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func verdictOf(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "live-small" && f[1] == metric {
			return line
		}
	}
	t.Fatalf("no row for %s in:\n%s", metric, out)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	parent := writeRuns(t, "parent.jsonl", steady, 0)

	var out bytes.Buffer
	regressed, err := compareFiles(&out, parent, parent)
	if err != nil || regressed {
		t.Fatalf("a file against itself: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if row := verdictOf(t, out.String(), "events_per_s"); !strings.HasSuffix(row, "ok") {
		t.Errorf("identical runs: %s", row)
	}

	// Throughput is higher-is-better: 30% fewer events per second regresses.
	slow := make([]float64, len(steady))
	for i, v := range steady {
		slow[i] = v * 0.7
	}
	out.Reset()
	regressed, err = compareFiles(&out, parent, writeRuns(t, "slow.jsonl", slow, 0))
	if err != nil || !regressed {
		t.Fatalf("30%% slower: regressed=%v err=%v", regressed, err)
	}
	if row := verdictOf(t, out.String(), "events_per_s"); !strings.HasSuffix(row, "regressed") {
		t.Errorf("30%% slower: %s", row)
	}
	if row := verdictOf(t, out.String(), "latency_p50_ms"); !strings.HasSuffix(row, "ok") {
		t.Errorf("unchanged latency: %s", row)
	}

	// A side whose own quartiles are wider apart than the bound decides nothing.
	noisy := []float64{60, 140, 70, 130, 80, 120, 65, 135, 75, 125}
	out.Reset()
	regressed, err = compareFiles(&out, parent, writeRuns(t, "noisy.jsonl", noisy, 0))
	if err != nil || regressed {
		t.Fatalf("noisy: regressed=%v err=%v", regressed, err)
	}
	if row := verdictOf(t, out.String(), "events_per_s"); !strings.Contains(row, "unresolved") {
		t.Errorf("noisy: %s", row)
	}

	// Failed operations regress whatever the timings say.
	out.Reset()
	regressed, err = compareFiles(&out, parent, writeRuns(t, "failed.jsonl", steady, 2))
	if err != nil || !regressed {
		t.Fatalf("failed operations: regressed=%v err=%v", regressed, err)
	}
}
