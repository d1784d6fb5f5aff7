package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Self time is a span's duration minus the union of its direct children's
// intervals clipped to it: overlapping children are not subtracted twice and
// an overhanging child only counts for the part inside.
func TestSelfTimes(t *testing.T) {
	tr := &spanTree{}
	root := tr.add("event", 0, 0, 0, 100, "")
	tr.add("sched.apply", root, root, 10, 30, "")
	tr.add("sched.apply", root, root, 20, 40, "")     // overlaps the first: union is 10..40
	tr.add("sched.schedule", root, root, 90, 120, "") // overhangs: 90..100 counts
	tr.add("event", 0, 0, 200, 250, "")               // childless

	byName := map[string]layerSelf{}
	for _, ls := range tr.selfTimes() {
		byName[ls.name] = ls
	}
	ev := byName["event"]
	if ev.count != 2 || ev.totalNS != 150 || ev.childCoverage != 40 || ev.selfNS != 110 {
		t.Errorf("event: %+v, want count 2 total 150 covered 40 self 110", ev)
	}
	if a := byName["sched.apply"]; a.totalNS != 40 || a.selfNS != 40 {
		t.Errorf("sched.apply: %+v, want total and self 40", a)
	}

	path := filepath.Join(t.TempDir(), "out", "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 5+3 {
		t.Fatalf("%d lines, want 5 spans and 3 self summaries", len(lines))
	}
	if want := `{"id":2,"parent":1,"trace":1,"name":"sched.apply","start_ns":10,"end_ns":30}`; lines[1] != want {
		t.Errorf("span line %s, want %s", lines[1], want)
	}
}
