package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: echelonflow
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSchedule_64Hosts4Jobs-4      	       2	  30212345 ns/op	     124.5 allocs/schedcall	  56141 ns/schedcall	  69.00 schedcalls/run
BenchmarkSchedule_256Hosts8Jobs-4     	       2	 120212345 ns/op	     241.9 allocs/schedcall	 178752 ns/schedcall	  69.00 schedcalls/run
BenchmarkSchedule_2048Hosts64Jobs_DeltaEvent-4 	  50	    335472 ns/op	     533.0 allocs/schedcall	 315608 ns/schedcall
BenchmarkSchedule_2048Hosts64Jobs_FullEvent-4 	  50	   2345278 ns/op	    3894 allocs/schedcall	2324675 ns/schedcall
PASS
ok  	echelonflow	4.2s
`

const sampleBaseline = `{
  "suite": "BenchmarkSchedule_*",
  "results": {
    "64hosts_4jobs": {
      "seed": {"ns_per_schedcall": 126192, "allocs_per_schedcall": 1827},
      "pooled": {"ns_per_schedcall": 56141, "allocs_per_schedcall": 124.5},
      "speedup": "2.2x"
    },
    "256hosts_8jobs": {
      "pooled": {"ns_per_schedcall": 178752, "allocs_per_schedcall": 241.9}
    },
    "2048hosts_64jobs": {
      "pooled_delta": {"ns_per_schedcall": 315608, "allocs_per_schedcall": 533.0, "advisory": true},
      "pooled_full_event": {"ns_per_schedcall": 2324675, "allocs_per_schedcall": 3894, "advisory": true}
    }
  }
}`

func loadBaseline(t *testing.T) *baseline {
	t.Helper()
	var b baseline
	if err := json.Unmarshal([]byte(sampleBaseline), &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func TestParseBench(t *testing.T) {
	meas, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(meas) != 4 {
		t.Fatalf("parsed %d measurements, want 4: %+v", len(meas), meas)
	}
	want := []measurement{
		{Key: "64hosts_4jobs", Variant: "pooled", metrics: metrics{NsPerCall: 56141, AllocsPerCall: 124.5}},
		{Key: "256hosts_8jobs", Variant: "pooled", metrics: metrics{NsPerCall: 178752, AllocsPerCall: 241.9}},
		{Key: "2048hosts_64jobs", Variant: "pooled_delta", metrics: metrics{NsPerCall: 315608, AllocsPerCall: 533.0}},
		{Key: "2048hosts_64jobs", Variant: "pooled_full_event", metrics: metrics{NsPerCall: 2324675, AllocsPerCall: 3894}},
	}
	for i, w := range want {
		if meas[i] != w {
			t.Errorf("measurement %d = %+v, want %+v", i, meas[i], w)
		}
	}
}

func TestCheckWithinThreshold(t *testing.T) {
	meas, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	lines, regressed := check(meas, loadBaseline(t), 1.25)
	if regressed {
		t.Errorf("baseline-equal measurements flagged as regression:\n%s", strings.Join(lines, "\n"))
	}
	// 4 measurements x 2 metrics.
	if len(lines) != 8 {
		t.Errorf("got %d comparison lines, want 8", len(lines))
	}
}

// TestCheckAdvisoryWarnsOnly pins the soft gate: a regression on a variant
// whose baseline is marked advisory reports WARN but never fails the run.
func TestCheckAdvisoryWarnsOnly(t *testing.T) {
	meas := []measurement{{
		Key: "2048hosts_64jobs", Variant: "pooled_delta",
		metrics: metrics{NsPerCall: 315608 * 2, AllocsPerCall: 533.0},
	}}
	lines, regressed := check(meas, loadBaseline(t), 1.25)
	if regressed {
		t.Errorf("advisory variant regression failed the run:\n%s", strings.Join(lines, "\n"))
	}
	warned := false
	for _, l := range lines {
		if strings.HasPrefix(l, "WARN") {
			warned = true
		}
	}
	if !warned {
		t.Errorf("advisory regression produced no WARN line:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCheckFlagsRegression(t *testing.T) {
	meas := []measurement{{
		Key: "64hosts_4jobs", Variant: "pooled",
		metrics: metrics{NsPerCall: 56141 * 1.5, AllocsPerCall: 124.5},
	}}
	lines, regressed := check(meas, loadBaseline(t), 1.25)
	if !regressed {
		t.Errorf("1.5x slowdown not flagged:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCheckAllocRegression(t *testing.T) {
	meas := []measurement{{
		Key: "64hosts_4jobs", Variant: "pooled",
		metrics: metrics{NsPerCall: 56141, AllocsPerCall: 124.5 * 2},
	}}
	if _, regressed := check(meas, loadBaseline(t), 1.25); !regressed {
		t.Error("2x allocation growth not flagged")
	}
}

func TestCheckSkipsUnknownKeys(t *testing.T) {
	meas := []measurement{{Key: "9hosts_9jobs", Variant: "pooled"}}
	lines, regressed := check(meas, loadBaseline(t), 1.25)
	if regressed {
		t.Error("missing baseline entry treated as regression")
	}
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "SKIP") {
		t.Errorf("want one SKIP line, got %v", lines)
	}
}

func TestParseBenchIgnoresForeignLines(t *testing.T) {
	meas, err := parseBench(strings.NewReader("BenchmarkOther-4 1 5 ns/op\nrandom noise\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(meas) != 0 {
		t.Errorf("parsed foreign benchmarks: %+v", meas)
	}
}

// TestParseWireBench: a wire round-trip line is a binary measurement; a
// line naming any other framing is not a wire benchmark at all.
func TestParseWireBench(t *testing.T) {
	meas, err := parseBench(strings.NewReader(
		"BenchmarkWire_SubmitJob_Binary-2 20000 846.8 ns/op 160 B/op 2 allocs/op\n" +
			"BenchmarkWire_SubmitJob_JSON-2 20000 12216 ns/op 976 B/op 16 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := measurement{Key: "submitjob", Variant: "binary", metrics: metrics{NsPerMsg: 846.8, AllocsPerMsg: 2}}
	if len(meas) != 1 || meas[0] != want {
		t.Errorf("parsed %+v, want only %+v", meas, want)
	}
}

func TestParseBenchMissingMetricErrors(t *testing.T) {
	_, err := parseBench(strings.NewReader("BenchmarkSchedule_64Hosts4Jobs-4 2 30212345 ns/op\n"))
	if err == nil {
		t.Error("benchmark line without schedcall metrics accepted")
	}
}
