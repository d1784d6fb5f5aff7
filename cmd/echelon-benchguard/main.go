// Command echelon-benchguard compares benchmark output against a checked-in
// baseline and fails when the hot path regresses.
//
// Two suites are recognized. The scheduler scale benchmarks
// (BENCH_sched.json):
//
//	go test -bench 'BenchmarkSchedule_' -benchtime 2x -run '^$' . | \
//	    go run ./cmd/echelon-benchguard -baseline BENCH_sched.json
//
// and the wire codec microbenchmarks (BENCH_wire.json):
//
//	go test -bench 'BenchmarkWire_' -run '^$' ./internal/wire | \
//	    go run ./cmd/echelon-benchguard -baseline BENCH_wire.json
//
// The guard parses the custom per-call metrics ("ns/schedcall",
// "allocs/schedcall") and the wire suite's standard
// "ns/op"/"allocs/op", matches each benchmark to its baseline entry, and
// exits non-zero if a metric exceeds the baseline by more than the
// threshold factor (default 1.25). It is meant as an advisory CI gate:
// benchmark noise on shared runners is real, so treat a failure as a
// prompt to re-run and investigate, not as proof of a regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baseline mirrors the subset of BENCH_sched.json the guard consumes.
type baseline struct {
	Suite   string                     `json:"suite"`
	Results map[string]json.RawMessage `json:"results"`
}

// metrics is one variant's recorded numbers inside a results entry.
// Advisory marks the variant as a soft gate: a regression is reported as
// WARN instead of failing the run — used for newly added sizes whose
// baselines have not yet stabilized across runners.
type metrics struct {
	NsPerCall     float64 `json:"ns_per_schedcall"`
	AllocsPerCall float64 `json:"allocs_per_schedcall"`
	NsPerMsg      float64 `json:"ns_per_msg"`
	AllocsPerMsg  float64 `json:"allocs_per_msg"`
	Advisory      bool    `json:"advisory,omitempty"`
}

// measurement is one parsed benchmark line.
type measurement struct {
	Key     string // e.g. "256hosts_8jobs"
	Variant string // "pooled", "pooled_deadline", "pooled_delta" or "pooled_full_event"
	metrics
}

// benchLine matches the scale benchmarks' names, capturing host count, job
// count, and the optional suffix selecting the budgeted or per-event
// (incremental vs full) configuration.
var benchLine = regexp.MustCompile(`^BenchmarkSchedule_(\d+)Hosts(\d+)Jobs(_Deadline|_DeltaEvent|_FullEvent)?(?:-\d+)?\s+(.*)$`)

// wireLine matches the wire codec round-trip benchmarks, capturing the
// message shape. These report the standard testing.B metrics, one full
// Send+Recv per op; binary is the only framing after the handshake.
var wireLine = regexp.MustCompile(`^BenchmarkWire_([A-Za-z0-9]+)_Binary(?:-\d+)?\s+(.*)$`)

// parseBench extracts measurements from `go test -bench` output. Lines that
// are not scale-benchmark results are ignored, as are benchmark lines
// missing the custom metrics (e.g. when run without bench_sched_test.go).
func parseBench(r io.Reader) ([]measurement, error) {
	var out []measurement
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			if w := wireLine.FindStringSubmatch(sc.Text()); w != nil {
				meas := measurement{Key: strings.ToLower(w[1]), Variant: "binary"}
				var err error
				if meas.NsPerMsg, err = metricValue(w[2], "ns/op"); err != nil {
					return nil, fmt.Errorf("%s: %v", sc.Text(), err)
				}
				if meas.AllocsPerMsg, err = metricValue(w[2], "allocs/op"); err != nil {
					return nil, fmt.Errorf("%s: %v", sc.Text(), err)
				}
				out = append(out, meas)
			}
			continue
		}
		meas := measurement{
			Key:     fmt.Sprintf("%shosts_%sjobs", m[1], m[2]),
			Variant: "pooled",
		}
		switch m[3] {
		case "_Deadline":
			meas.Variant = "pooled_deadline"
		case "_DeltaEvent":
			meas.Variant = "pooled_delta"
		case "_FullEvent":
			meas.Variant = "pooled_full_event"
		}
		var err error
		if meas.NsPerCall, err = metricValue(m[4], "ns/schedcall"); err != nil {
			return nil, fmt.Errorf("%s: %v", sc.Text(), err)
		}
		if meas.AllocsPerCall, err = metricValue(m[4], "allocs/schedcall"); err != nil {
			return nil, fmt.Errorf("%s: %v", sc.Text(), err)
		}
		out = append(out, meas)
	}
	return out, sc.Err()
}

// metricValue pulls the number preceding the named unit from a benchmark
// result line's field list.
func metricValue(fields, unit string) (float64, error) {
	re := regexp.MustCompile(`(\S+)\s+` + regexp.QuoteMeta(unit) + `(\s|$)`)
	m := re.FindStringSubmatch(fields)
	if m == nil {
		return 0, fmt.Errorf("no %q metric", unit)
	}
	return strconv.ParseFloat(m[1], 64)
}

// check compares measurements to the baseline and returns one line per
// comparison plus whether any metric regressed beyond the threshold.
func check(meas []measurement, base *baseline, threshold float64) (lines []string, regressed bool) {
	for _, m := range meas {
		raw, ok := base.Results[m.Key]
		if !ok {
			lines = append(lines, fmt.Sprintf("SKIP %s/%s: no baseline entry", m.Key, m.Variant))
			continue
		}
		var variants map[string]json.RawMessage
		if err := json.Unmarshal(raw, &variants); err != nil {
			lines = append(lines, fmt.Sprintf("SKIP %s: malformed baseline entry: %v", m.Key, err))
			continue
		}
		vraw, ok := variants[m.Variant]
		if !ok {
			lines = append(lines, fmt.Sprintf("SKIP %s/%s: no baseline variant", m.Key, m.Variant))
			continue
		}
		var want metrics
		if err := json.Unmarshal(vraw, &want); err != nil {
			lines = append(lines, fmt.Sprintf("SKIP %s/%s: malformed baseline variant: %v", m.Key, m.Variant, err))
			continue
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"ns/schedcall", m.NsPerCall, want.NsPerCall},
			{"allocs/schedcall", m.AllocsPerCall, want.AllocsPerCall},
			{"ns/msg", m.NsPerMsg, want.NsPerMsg},
			{"allocs/msg", m.AllocsPerMsg, want.AllocsPerMsg},
		} {
			if c.want <= 0 {
				continue
			}
			ratio := c.got / c.want
			verdict := "ok  "
			if ratio > threshold {
				if want.Advisory {
					verdict = "WARN"
				} else {
					verdict = "FAIL"
					regressed = true
				}
			}
			lines = append(lines, fmt.Sprintf("%s %s/%s %s: %.1f vs baseline %.1f (%.2fx, limit %.2fx)",
				verdict, m.Key, m.Variant, c.name, c.got, c.want, ratio, threshold))
		}
	}
	return lines, regressed
}

func main() {
	basePath := flag.String("baseline", "BENCH_sched.json", "baseline metrics file")
	in := flag.String("in", "-", "benchmark output to check ('-' for stdin)")
	threshold := flag.Float64("threshold", 1.25, "allowed slowdown factor before failing")
	flag.Parse()

	data, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "parse %s: %v\n", *basePath, err)
		os.Exit(2)
	}

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}
	meas, err := parseBench(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(meas) == 0 {
		fmt.Fprintln(os.Stderr, "no BenchmarkSchedule_*/BenchmarkWire_* results found in input")
		os.Exit(2)
	}

	lines, regressed := check(meas, &base, *threshold)
	for _, l := range lines {
		fmt.Println(l)
	}
	if regressed {
		fmt.Println("bench-guard: regression beyond threshold")
		os.Exit(1)
	}
	fmt.Printf("bench-guard: %d benchmarks within %.2fx of baseline\n", len(meas), *threshold)
}
