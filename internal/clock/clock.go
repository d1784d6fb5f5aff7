// Package clock is the one notion of time the coordinator's model runs on:
// the instant every journaled record carries and the timers whose firing
// writes a record (the coalescing drain, the quarantine expiry, the interval
// tick). Production reads the wall clock through Real; tests, the
// differential check harness and the scripted experiments drive a Manual
// clock, on which a timer fires exactly when the script moves time past its
// deadline and never on its own.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock reads the time and arms one-shot timers.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f once, d after now, and never from within AfterFunc
	// itself: its caller may hold a lock f takes. The returned stop cancels
	// the call and reports whether it did; it reports false once f has been
	// called or stop already ran.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Real is the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock with time.AfterFunc.
func (Real) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }

// Manual is a clock that moves only when told to. Set and Advance run every
// timer that falls due on the calling goroutine, one at a time in order of
// (deadline, arming order), with Now reading each timer's own deadline while
// it runs; a timer armed by a callback for a deadline the move covers runs
// in the same move. Callbacks run with no lock of the clock held, so they may
// read it and arm timers. Time never moves backward.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	armed  uint64
	timers []*manualTimer // sorted by (at, seq)
}

type manualTimer struct {
	at  time.Time
	seq uint64
	f   func()
}

// NewManual returns a Manual clock reading t.
func NewManual(t time.Time) *Manual { return &Manual{now: t} }

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// AfterFunc implements Clock. f runs in the first Set or Advance that
// reaches now+d, even for d <= 0.
func (m *Manual) AfterFunc(d time.Duration, f func()) func() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.armed++
	t := &manualTimer{at: m.now.Add(d), seq: m.armed, f: f}
	i := sort.Search(len(m.timers), func(i int) bool { return t.before(m.timers[i]) })
	m.timers = append(m.timers, nil)
	copy(m.timers[i+1:], m.timers[i:])
	m.timers[i] = t
	return func() bool { return m.remove(t) }
}

func (t *manualTimer) before(u *manualTimer) bool {
	return t.at.Before(u.at) || t.at.Equal(u.at) && t.seq < u.seq
}

// remove disarms t, reporting whether it was still armed.
func (m *Manual) remove(t *manualTimer) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, u := range m.timers {
		if u == t {
			m.timers = append(m.timers[:i], m.timers[i+1:]...)
			return true
		}
	}
	return false
}

// Advance moves the clock d forward, running the timers that fall due. A
// negative d counts as zero.
func (m *Manual) Advance(d time.Duration) { m.Set(m.Now().Add(d)) }

// Set moves the clock forward to t, running the timers that fall due. A t
// before Now counts as Now: the clock stays, and only timers already due run.
func (m *Manual) Set(t time.Time) {
	for {
		m.mu.Lock()
		if t.Before(m.now) {
			t = m.now
		}
		if len(m.timers) == 0 || m.timers[0].at.After(t) {
			m.now = t
			m.mu.Unlock()
			return
		}
		next := m.timers[0]
		m.timers = m.timers[1:]
		if next.at.After(m.now) {
			m.now = next.at
		}
		m.mu.Unlock()
		next.f()
	}
}
