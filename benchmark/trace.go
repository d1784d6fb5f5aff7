package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// span is one timed interval at a layer boundary. Spans are recorded in
// memory by whoever makes the call (tenant goroutines, the metered
// scheduler, the timed placer) and assembled into one tree when the run
// ends. Trace is the root span's ID, shared by every span of one job.
type span struct {
	ID, Parent, Trace uint64
	Name              string
	Start, End        int64 // ns since the run's epoch
	Attr              string
}

func (s span) dur() int64 { return s.End - s.Start }

// spanTree is the assembled trace of one run.
type spanTree struct {
	spans []span
}

func (t *spanTree) add(name string, parent, trace uint64, start, end int64, attr string) uint64 {
	id := uint64(len(t.spans) + 1)
	if trace == 0 {
		trace = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end, Attr: attr})
	return id
}

// layerSelf is one span name's totals: its spans' summed duration, and the
// self time left after subtracting the part of each span its direct
// children cover.
type layerSelf struct {
	name          string
	count         int
	totalNS       int64
	selfNS        int64
	childCoverage int64
}

// selfTimes computes per-name self time. A span's covered time is the union
// of its direct children's intervals clipped to the span, so overlapping or
// overhanging children are not subtracted twice.
func (t *spanTree) selfTimes() []layerSelf {
	children := make(map[uint64][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*layerSelf)
	var order []string
	for _, s := range t.spans {
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerSelf{name: s.Name}
			byName[s.Name] = ls
			order = append(order, s.Name)
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, edge), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		ls.count++
		ls.totalNS += s.dur()
		ls.childCoverage += covered
		ls.selfNS += s.dur() - covered
	}
	sort.Strings(order)
	out := make([]layerSelf, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// write stores the trace as JSON lines: one line per span, then one
// "self" line per span name. Hand-formatted — reflection-based encoding of a
// few hundred thousand spans would cost more than the run's tear-down.
func (t *spanTree) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for _, s := range t.spans {
		b = b[:0]
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, s.ID, 10)
		if s.Parent != 0 {
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, s.Parent, 10)
		}
		b = append(b, `,"trace":`...)
		b = strconv.AppendUint(b, s.Trace, 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.End, 10)
		if s.Attr != "" {
			b = append(b, `,"attr":`...)
			b = strconv.AppendQuote(b, s.Attr)
		}
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	for _, ls := range t.selfTimes() {
		fmt.Fprintf(w, `{"self":%q,"spans":%d,"total_ns":%d,"self_ns":%d,"child_ns":%d}`+"\n",
			ls.name, ls.count, ls.totalNS, ls.selfNS, ls.childCoverage)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
