package ratelimit

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"echelonflow/internal/clock"
)

var t0 = time.Unix(0, 0)

// advanceUntil moves clk forward a millisecond at a time until a result
// arrives on done, and returns it; Wait can only return once the clock has
// refilled what it asked for.
func advanceUntil(t *testing.T, clk *clock.Manual, done <-chan error) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case err := <-done:
			return err
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("Wait never returned; clock at t0+%v", clk.Now().Sub(t0))
		}
		clk.Advance(time.Millisecond)
		runtime.Gosched()
	}
}

// blocked gives a waiter started on a paused bucket time to block on it,
// which nothing outside Wait can observe, and fails if it returned instead:
// with no rate there is nothing it could have been granted.
func blocked(t *testing.T, done <-chan error) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("paused Wait returned %v before it was woken", err)
	default:
	}
}

func TestNewBucketValidation(t *testing.T) {
	if _, err := NewBucket(-1, 1, clock.Real{}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := NewBucket(1, 0, clock.Real{}); err == nil {
		t.Error("zero burst accepted")
	}
}

func TestTryTakeAndRefill(t *testing.T) {
	clk := clock.NewManual(t0)
	b, err := NewBucket(10, 5, clk)
	if err != nil {
		t.Fatal(err)
	}
	// Starts full: 5 tokens available.
	if _, ok := b.tryTake(5); !ok {
		t.Fatal("full bucket refused")
	}
	wait, ok := b.tryTake(2)
	if ok {
		t.Fatal("empty bucket granted")
	}
	if wait != 200*time.Millisecond {
		t.Errorf("wait = %v, want 200ms (2 tokens at 10/s)", wait)
	}
	clk.Advance(200 * time.Millisecond)
	if _, ok := b.tryTake(2); !ok {
		t.Error("refilled tokens not granted")
	}
}

func TestAllow(t *testing.T) {
	clk := clock.NewManual(t0)
	b, err := NewBucket(1, 2, clk)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Allow(0) {
		t.Error("zero-token request refused")
	}
	if !b.Allow(1) || !b.Allow(1) {
		t.Error("burst not granted")
	}
	if b.Allow(1) {
		t.Error("drained bucket granted without waiting")
	}
	clk.Advance(time.Second)
	if !b.Allow(1) {
		t.Error("refilled token refused")
	}
}

func TestRefillCapsAtBurst(t *testing.T) {
	clk := clock.NewManual(t0)
	b, _ := NewBucket(100, 3, clk)
	clk.Advance(time.Hour)
	if _, ok := b.tryTake(3); !ok {
		t.Error("burst not available")
	}
	if _, ok := b.tryTake(0.5); ok {
		t.Error("tokens beyond burst granted")
	}
}

func TestSetRate(t *testing.T) {
	b, _ := NewBucket(1, 1, clock.NewManual(t0))
	b.SetRate(42)
	if b.Rate() != 42 {
		t.Errorf("Rate = %v", b.Rate())
	}
	b.SetRate(-5)
	if b.Rate() != 0 {
		t.Errorf("negative SetRate should clamp to 0, got %v", b.Rate())
	}
}

// Wait sleeps on the bucket's clock: at 1000 tokens/s with the burst
// drained, 50 tokens cost 50ms of clock time, however the goroutines run.
func TestWaitGrantsOverTime(t *testing.T) {
	clk := clock.NewManual(t0)
	b, _ := NewBucket(1000, 100, clk)
	ctx := context.Background()
	if err := b.Wait(ctx, 100); err != nil { // drain burst
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait(ctx, 50) }()
	if err := advanceUntil(t, clk, done); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(t0); got < 50*time.Millisecond {
		t.Errorf("Wait returned at t0+%v, before 50 tokens refilled", got)
	}
}

// On the wall clock, the agent's clock, Wait sleeps until the tokens refill:
// 20 tokens at 1000/s with the burst drained take about 20ms.
func TestWaitRealClock(t *testing.T) {
	b, _ := NewBucket(1000, 100, clock.Real{})
	ctx := context.Background()
	if err := b.Wait(ctx, 100); err != nil { // drain burst
		t.Fatal(err)
	}
	start := time.Now()
	if err := b.Wait(ctx, 20); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("Wait for 20 tokens at 1000/s took %v", elapsed)
	}
}

func TestWaitExceedsBurst(t *testing.T) {
	b, _ := NewBucket(10, 5, clock.NewManual(t0))
	if err := b.Wait(context.Background(), 6); err == nil {
		t.Error("request above burst accepted")
	}
	if err := b.Wait(context.Background(), 0); err != nil {
		t.Errorf("zero-token wait errored: %v", err)
	}
}

func TestWaitCancellation(t *testing.T) {
	b, _ := NewBucket(0, 10, clock.NewManual(t0))            // paused
	if err := b.Wait(context.Background(), 10); err != nil { // burst grants immediately
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Wait(ctx, 1) }()
	blocked(t, done)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("paused Wait returned %v after cancellation, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("paused Wait did not return on cancellation")
	}
}

func TestWaitWakesOnRateChange(t *testing.T) {
	clk := clock.NewManual(t0)
	b, _ := NewBucket(0, 10, clk)
	if err := b.Wait(context.Background(), 10); err != nil { // drain burst
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait(context.Background(), 5) }()
	blocked(t, done)
	b.SetRate(1000)
	if err := advanceUntil(t, clk, done); err != nil {
		t.Errorf("Wait after rate change: %v", err)
	}
}

func TestConcurrentWaiters(t *testing.T) {
	clk := clock.NewManual(t0)
	b, _ := NewBucket(1e4, 1000, clk)
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func() { errs <- b.Wait(context.Background(), 500) }()
	}
	for i := 0; i < 20; i++ {
		if err := advanceUntil(t, clk, errs); err != nil {
			t.Errorf("concurrent Wait: %v", err)
		}
	}
	// 20 x 500 tokens, 1000 of them from the burst, refill at 10k/s.
	if got := clk.Now().Sub(t0); got < 900*time.Millisecond {
		t.Errorf("20 waiters finished at t0+%v, before 9000 tokens refilled", got)
	}
}
