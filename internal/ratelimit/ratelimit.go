// Package ratelimit implements the token-bucket pacing the EchelonFlow
// Agent uses to enforce Coordinator-assigned bandwidth on real sockets —
// the "weighted sharing of network bandwidth among the queues" of the
// paper's §5, realized per flow.
package ratelimit

import (
	"context"
	"fmt"
	"sync"
	"time"

	"echelonflow/internal/clock"
)

// Bucket is a token bucket: tokens accrue at Rate per second up to Burst,
// and Wait blocks until the requested tokens are available. A rate of zero
// pauses the flow; SetRate wakes waiters.
type Bucket struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	tokens  float64
	last    time.Time
	changed chan struct{} // closed and replaced on SetRate
	clk     clock.Clock
}

// NewBucket returns a bucket starting full at the given rate, refilling and
// waiting on clk.
func NewBucket(rate, burst float64, clk clock.Clock) (*Bucket, error) {
	if rate < 0 {
		return nil, fmt.Errorf("ratelimit: negative rate %v", rate)
	}
	if burst <= 0 {
		return nil, fmt.Errorf("ratelimit: burst must be positive, got %v", burst)
	}
	b := &Bucket{
		rate: rate, burst: burst, tokens: burst,
		changed: make(chan struct{}),
		clk:     clk,
	}
	b.last = clk.Now()
	return b, nil
}

// Rate returns the current refill rate.
func (b *Bucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// SetRate changes the refill rate and wakes any waiters so they can
// recompute their wait. Negative rates clamp to zero (paused).
func (b *Bucket) SetRate(rate float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if rate < 0 {
		rate = 0
	}
	b.rate = rate
	close(b.changed)
	b.changed = make(chan struct{})
}

// refillLocked accrues tokens for elapsed time.
func (b *Bucket) refillLocked() {
	now := b.clk.Now()
	dt := now.Sub(b.last).Seconds()
	if dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// tryTake consumes n tokens if available, otherwise returns how long to
// wait at the current rate (or -1 when the bucket is paused).
func (b *Bucket) tryTake(n float64) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	if b.tokens >= n {
		b.tokens -= n
		return 0, true
	}
	if b.rate <= 0 {
		return -1, false
	}
	need := (n - b.tokens) / b.rate
	return time.Duration(need * float64(time.Second)), false
}

// Allow consumes n tokens if they are immediately available and reports
// whether it did — the non-blocking admission-control variant of Wait.
func (b *Bucket) Allow(n float64) bool {
	if n <= 0 {
		return true
	}
	_, ok := b.tryTake(n)
	return ok
}

// Wait blocks until n tokens are consumed, the context is cancelled, or n
// exceeds the burst (an error: it could never be satisfied).
func (b *Bucket) Wait(ctx context.Context, n float64) error {
	if n <= 0 {
		return nil
	}
	if n > b.burst {
		return fmt.Errorf("ratelimit: request %v exceeds burst %v", n, b.burst)
	}
	for {
		wait, ok := b.tryTake(n)
		if ok {
			return nil
		}
		b.mu.Lock()
		changed := b.changed
		b.mu.Unlock()
		if wait < 0 {
			// Paused: wake only on rate change or cancellation.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-changed:
			}
			continue
		}
		fired := make(chan struct{})
		stop := b.clk.AfterFunc(wait, func() { close(fired) })
		select {
		case <-ctx.Done():
			stop()
			return ctx.Err()
		case <-changed:
			stop()
		case <-fired:
		}
	}
}
