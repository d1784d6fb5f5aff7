package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated (benchmark -manifest); the file at the
// repository root must be the tables in metrics.go, or the driver and the
// program disagree about what is reported.
func TestManifestMatchesFile(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("../BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
}

// The driver refuses a manifest outside these limits before a single run.
func TestManifestWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q invalid or reused", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q invalid", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q invalid or reused", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why is %d characters or has a line break", w.Name, len(w.Why))
		}
		if _, err := workloadByName(w.Name, runConfig{}); err != nil {
			t.Error(err)
		}
	}
	if runSeconds < 1 || runSeconds > 60 || len(manifestJSON()) > 64<<10 {
		t.Errorf("run_seconds %d or manifest size %d out of range", runSeconds, len(manifestJSON()))
	}
}
