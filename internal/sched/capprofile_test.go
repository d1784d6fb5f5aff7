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

func TestProfileCloneIsIndependent(t *testing.T) {
	p := newProfile(0, 10)
	c := p.clone()
	c.reserve(0, 5, 9)
	if p.freeAt(2) != 10 {
		t.Error("clone mutation leaked into original")
	}
}

func TestPairFillSimple(t *testing.T) {
	src := newProfile(0, 2)
	dst := newProfile(0, 1)
	fills, ok := pairFill(src, dst, 0, 10, 3)
	if !ok {
		t.Fatal("fill should fit")
	}
	// Limited by dst (rate 1): 3 bytes in [0,3].
	if len(fills) != 1 || !fills[0].to.ApproxEq(3) || fills[0].rate != 1 {
		t.Errorf("fills = %+v", fills)
	}
	if got := finishOf(fills); !got.ApproxEq(3) {
		t.Errorf("finishOf = %v", got)
	}
}

func TestPairFillAcrossSegments(t *testing.T) {
	src := newProfile(0, 2)
	src.reserve(0, 2, 1.5) // only 0.5 free in [0,2]
	dst := newProfile(0, 2)
	fills, ok := pairFill(src, dst, 0, 10, 3)
	if !ok {
		t.Fatal("fill should fit")
	}
	// [0,2] at 0.5 => 1 byte; remaining 2 at rate 2 => [2,3].
	if len(fills) != 2 {
		t.Fatalf("fills = %+v", fills)
	}
	if fills[0].rate != 0.5 || !fills[1].to.ApproxEq(3) || fills[1].rate != 2 {
		t.Errorf("fills = %+v", fills)
	}
}

func TestPairFillDoesNotFit(t *testing.T) {
	src := newProfile(0, 1)
	dst := newProfile(0, 1)
	if _, ok := pairFill(src, dst, 0, 2, 5); ok {
		t.Error("5 bytes cannot fit in 2 seconds at rate 1")
	}
	if _, ok := pairFill(src, dst, 3, 3, 1); ok {
		t.Error("empty window accepted")
	}
}

func TestPairFillZeroVolume(t *testing.T) {
	src := newProfile(0, 1)
	dst := newProfile(0, 1)
	fills, ok := pairFill(src, dst, 0, 1, 0)
	if !ok || len(fills) != 0 {
		t.Errorf("zero-volume fill = %v, %v", fills, ok)
	}
}

func TestPairFillSkipsDeadSegments(t *testing.T) {
	src := newProfile(0, 1)
	src.reserve(0, 2, 1) // no capacity in [0,2]
	dst := newProfile(0, 1)
	fills, ok := pairFill(src, dst, 0, 5, 2)
	if !ok {
		t.Fatal("fill should fit after the dead segment")
	}
	if !fills[0].from.ApproxEq(2) || !finishOf(fills).ApproxEq(4) {
		t.Errorf("fills = %+v", fills)
	}
}

func TestCommitAndRateAt(t *testing.T) {
	src := newProfile(0, 2)
	dst := newProfile(0, 2)
	fills, ok := pairFill(src, dst, 0, 10, 4)
	if !ok {
		t.Fatal("fill failed")
	}
	commit(src, dst, fills)
	if got := src.freeAt(1); got != 0 {
		t.Errorf("src free after commit = %v", got)
	}
	if got := rateAt(fills, 0); got != 2 {
		t.Errorf("rateAt(0) = %v", got)
	}
	if got := rateAt(fills, 99); got != 0 {
		t.Errorf("rateAt(99) = %v", got)
	}
}

func TestFinishOfEmpty(t *testing.T) {
	if finishOf(nil) != 0 {
		t.Error("finishOf(nil) != 0")
	}
}
