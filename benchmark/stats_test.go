package main

import (
	"math"
	"testing"
)

func seq(n int) *samples {
	s := &samples{}
	for i := n; i >= 1; i-- { // descending, so sorting is exercised
		s.add(float64(i))
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.25, 25}, {0.75, 75}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) of 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (&samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	if got := seq(5).median(); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
}

func TestMinSamples(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.75, 40}, {0.90, 100}, {0.95, 200}, {0.99, 1000}, {0.999, 10000}} {
		if got := minSamples(c.q); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// The admission-wait p95 must not be reported from fewer than 200 samples.
func TestPercentileRefusesSmallSets(t *testing.T) {
	if _, err := seq(199).percentile(0.95); err == nil {
		t.Error("p95 of 199 samples was reported")
	}
	v, err := seq(200).percentile(0.95)
	if err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, nil", v, err)
	}
	if _, err := seq(999).percentile(0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{39, 0, false}, {40, 0.75, true}, {150, 0.90, true}, {200, 0.95, true}, {5000, 0.99, true}, {10000, 0.999, true}} {
		q, v, ok := seq(c.n).highestTail()
		if ok != c.want || q != c.q {
			t.Errorf("highestTail of %d samples = p%v ok=%v, want p%v ok=%v", c.n, q*100, ok, c.q*100, c.want)
		}
		if ok && float64(c.n)-v < tailBeyond-1 {
			t.Errorf("highestTail of %d samples chose %v with fewer than %d samples beyond it", c.n, v, tailBeyond)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(values, n=4), which
// is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 6}, 4.75, 6.25},
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, 4, 6.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
