// Package sched implements the flow schedulers compared in the paper:
// bandwidth fair sharing, Coflow scheduling (Varys-style MADD with SEBF
// ordering), and EchelonFlow scheduling (the paper's Property-4 adaptation
// of MADD to tardiness), plus per-flow baselines (SRPT, FIFO).
//
// A scheduler is a pure function from a scheduling snapshot (released,
// unfinished flows with group deadlines) and a fabric to per-flow rates.
// The co-simulator and the live Coordinator both re-invoke it on every flow
// arrival and departure, matching the paper's §5 sketch.
package sched

import (
	"slices"
	"sort"

	"echelonflow/internal/unit"
)

// profile is a piecewise-constant free-capacity timeline for one link, used
// to plan time-varying reservations. Segment i spans
// [times[i], times[i+1]) (the last extends to infinity) with free[i]
// capacity remaining.
type profile struct {
	times []unit.Time
	free  []unit.Rate
}

// reset rewinds the profile to a single full-capacity segment starting at
// start, reusing the backing arrays, so a link table's profiles allocate
// nothing once warm.
func (p *profile) reset(start unit.Time, cap unit.Rate) {
	p.times = append(p.times[:0], start)
	p.free = append(p.free[:0], cap)
}

// segIndex returns the index of the segment containing t, clamping to the
// first segment for times before the profile starts.
func (p *profile) segIndex(t unit.Time) int {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] > t }) - 1
	if i < 0 {
		return 0
	}
	return i
}

// ensureBreak inserts a breakpoint at t (if within range) and returns the
// index of the segment starting at t.
func (p *profile) ensureBreak(t unit.Time) int {
	if t <= p.times[0] {
		return 0
	}
	i := p.segIndex(t)
	if p.times[i].ApproxEq(t) {
		return i
	}
	// Split segment i at t.
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.free[i+2:], p.free[i+1:])
	p.times[i+1] = t
	p.free[i+1] = p.free[i]
	return i + 1
}

// freeAt returns the free capacity at time t.
func (p *profile) freeAt(t unit.Time) unit.Rate {
	if t < p.times[0] {
		t = p.times[0]
	}
	return p.free[p.segIndex(t)]
}

// reserve subtracts rate over [from, to). Reservations may not exceed the
// free capacity (within tolerance); excess clamps at zero to keep later
// arithmetic sane.
func (p *profile) reserve(from, to unit.Time, rate unit.Rate) {
	if to <= from || rate <= 0 {
		return
	}
	i := p.ensureBreak(from)
	var j int
	if to.IsInf() {
		j = len(p.times)
	} else {
		j = p.ensureBreak(to)
	}
	for k := i; k < j; k++ {
		p.free[k] -= rate
		if p.free[k] < 0 {
			p.free[k] = 0
		}
	}
}

// fillSegment is one constant-rate span of a planned transmission.
type fillSegment struct {
	from, to unit.Time
	rate     unit.Rate
}

// sortedBreaks sorts breakpoints ascending and drops exact duplicates in
// place — the same set-of-times semantics the planners relied on when
// breakpoints were collected in a map, without the per-call map.
func sortedBreaks(ts []unit.Time) []unit.Time {
	slices.Sort(ts)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// rateAt returns the planned rate at instant t (zero if no segment covers it).
func rateAt(fills []fillSegment, t unit.Time) unit.Rate {
	for _, f := range fills {
		if t >= f.from-unit.Time(unit.Eps) && t < f.to-unit.Time(unit.Eps) {
			return f.rate
		}
	}
	return 0
}

// finishOf returns the end of the last planned segment.
func finishOf(fills []fillSegment) unit.Time {
	if len(fills) == 0 {
		return 0
	}
	return fills[len(fills)-1].to
}
