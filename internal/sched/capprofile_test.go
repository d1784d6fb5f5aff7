package sched

import (
	"testing"

	"echelonflow/internal/unit"
)

func newProfile(start unit.Time, cap unit.Rate) *profile {
	p := &profile{}
	p.reset(start, cap)
	return p
}

func TestProfileReserveAndFreeAt(t *testing.T) {
	p := newProfile(0, 10)
	p.reserve(2, 5, 4)
	tests := []struct {
		t    unit.Time
		want unit.Rate
	}{
		{0, 10}, {1.9, 10}, {2, 6}, {4.9, 6}, {5, 10}, {100, 10},
	}
	for _, tt := range tests {
		if got := p.freeAt(tt.t); got != tt.want {
			t.Errorf("freeAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestProfileOverlappingReservations(t *testing.T) {
	p := newProfile(0, 10)
	p.reserve(0, 4, 3)
	p.reserve(2, 6, 3)
	if got := p.freeAt(3); got != 4 {
		t.Errorf("freeAt(3) = %v, want 4", got)
	}
	if got := p.freeAt(5); got != 7 {
		t.Errorf("freeAt(5) = %v, want 7", got)
	}
}

func TestProfileReserveClampsAtZero(t *testing.T) {
	p := newProfile(0, 1)
	p.reserve(0, 2, 5)
	if got := p.freeAt(1); got != 0 {
		t.Errorf("freeAt = %v, want 0", got)
	}
}

func TestProfileReserveBeforeStart(t *testing.T) {
	p := newProfile(5, 10)
	p.reserve(0, 7, 4) // starts before the profile: clamps to profile start
	if got := p.freeAt(5); got != 6 {
		t.Errorf("freeAt(5) = %v, want 6", got)
	}
	if got := p.freeAt(7); got != 10 {
		t.Errorf("freeAt(7) = %v, want 10", got)
	}
}

func TestProfileReserveToInfinity(t *testing.T) {
	p := newProfile(0, 10)
	p.reserve(3, unit.Inf, 2)
	if got := p.freeAt(1e9); got != 8 {
		t.Errorf("freeAt(1e9) = %v, want 8", got)
	}
	if got := p.freeAt(1); got != 10 {
		t.Errorf("freeAt(1) = %v, want 10", got)
	}
}

// rateAt reads a plan's rate at an instant: a segment covers [from, to)
// up to unit.Eps at either end, and no segment means zero.
func TestRateAt(t *testing.T) {
	fills := []fillSegment{{from: 0, to: 2, rate: 2}, {from: 2, to: 3, rate: 1}, {from: 5, to: 6, rate: 4}}
	tests := []struct {
		t    unit.Time
		want unit.Rate
	}{
		{-1, 0}, {0, 2}, {1.5, 2}, {2, 1}, {2.5, 1}, {3, 0}, {4, 0}, {5, 4}, {6, 0}, {99, 0},
	}
	for _, tt := range tests {
		if got := rateAt(fills, tt.t); got != tt.want {
			t.Errorf("rateAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if got := rateAt(nil, 0); got != 0 {
		t.Errorf("rateAt of no plan = %v, want 0", got)
	}
}

func TestFinishOfEmpty(t *testing.T) {
	if finishOf(nil) != 0 {
		t.Error("finishOf(nil) != 0")
	}
}
