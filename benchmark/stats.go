package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of timings (or any scalar observations) awaiting a
// percentile report. The zero value is ready for use.
type samples struct {
	xs     []float64
	sorted bool
}

func (s *samples) add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

func (s *samples) n() int { return len(s.xs) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// quantile returns the nearest-rank q-quantile, 0 for an empty set.
func (s *samples) quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.xs) {
		i = len(s.xs) - 1
	}
	return s.xs[i]
}

func (s *samples) median() float64 { return s.quantile(0.5) }

func (s *samples) sum() float64 {
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum
}

// tailBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the figure is one or two outliers, not a tail.
const tailBeyond = 10

// minSamples is the smallest sample count at which percentile q (0<q<1) has
// tailBeyond samples beyond it: 200 for p95, 1000 for p99.
func minSamples(q float64) int {
	return int(math.Ceil(tailBeyond/(1-q) - 1e-9))
}

// percentile reports the q-quantile, or an error when the set is too small
// for that percentile to have tailBeyond samples beyond it.
func (s *samples) percentile(q float64) (float64, error) {
	if need := minSamples(q); len(s.xs) < need {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", q*100, need, len(s.xs))
	}
	return s.quantile(q), nil
}

// tailLadder is the percentiles highestTail chooses from, ascending.
var tailLadder = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// highestTail returns the highest ladder percentile that still has
// tailBeyond samples beyond it, and its value; ok is false when even the
// lowest rung does not.
func (s *samples) highestTail() (q, v float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if len(s.xs) >= minSamples(tailLadder[i]) {
			return tailLadder[i], s.quantile(tailLadder[i]), true
		}
	}
	return 0, 0, false
}

// describe renders "p50=… p99=… (n=…)" for the human-readable report.
func (s *samples) describe(unit string) string {
	if len(s.xs) == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("p50=%.4g%s", s.median(), unit)
	if q, v, ok := s.highestTail(); ok {
		out += fmt.Sprintf(" p%g=%.4g%s", q*100, v, unit)
	}
	return out + fmt.Sprintf(" (n=%d)", len(s.xs))
}

// ms and us convert a duration to the float units the metrics are in.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
