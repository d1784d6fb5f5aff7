package clock

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

// record arms a timer on m that appends its name and the instant it ran at.
func record(m *Manual, log *[]string, name string, d time.Duration) func() bool {
	return m.AfterFunc(d, func() { *log = append(*log, fmt.Sprintf("%s@%v", name, m.Now().Sub(t0))) })
}

// Due timers run in deadline order, ties in arming order, each reading its
// own deadline; the move ends at its target and leaves later timers armed.
func TestManualFiresInDeadlineThenArmingOrder(t *testing.T) {
	m := NewManual(t0)
	var log []string
	record(m, &log, "c", 3*time.Second)
	record(m, &log, "a", time.Second)
	record(m, &log, "b1", 2*time.Second)
	record(m, &log, "b2", 2*time.Second)
	record(m, &log, "late", 10*time.Second)
	m.Advance(5 * time.Second)
	want := []string{"a@1s", "b1@2s", "b2@2s", "c@3s"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("fired %v, want %v", log, want)
	}
	if got := m.Now().Sub(t0); got != 5*time.Second {
		t.Errorf("Now after Advance(5s) = t0+%v", got)
	}
	m.Set(t0.Add(10 * time.Second))
	if log[len(log)-1] != "late@10s" {
		t.Errorf("timer at the Set target did not fire: %v", log)
	}
}

// Stop before the deadline cancels and reports true; stop after firing, or a
// second stop, reports false.
func TestManualStop(t *testing.T) {
	m := NewManual(t0)
	var log []string
	stopA := record(m, &log, "a", time.Second)
	stopB := record(m, &log, "b", time.Second)
	if !stopA() {
		t.Error("stop before the deadline reported false")
	}
	if stopA() {
		t.Error("second stop reported true")
	}
	m.Advance(time.Second)
	if !reflect.DeepEqual(log, []string{"b@1s"}) {
		t.Errorf("fired %v, want only b", log)
	}
	if stopB() {
		t.Error("stop after firing reported true")
	}
}

// The clock never moves backward: a Set behind Now and a negative Advance
// leave it where it is.
func TestManualNeverMovesBackward(t *testing.T) {
	m := NewManual(t0)
	m.Advance(time.Second)
	m.Set(t0)
	m.Advance(-time.Hour)
	if got := m.Now(); !got.Equal(t0.Add(time.Second)) {
		t.Errorf("Now = t0+%v, want t0+1s", got.Sub(t0))
	}
}

// A callback that arms a timer for its own instant (or any instant the move
// covers) sees it run in the same move; AfterFunc itself never runs f, even
// for a deadline already passed.
func TestManualChainedTimersFireInOneMove(t *testing.T) {
	m := NewManual(t0)
	var log []string
	m.AfterFunc(time.Second, func() {
		log = append(log, "first")
		m.AfterFunc(0, func() {
			log = append(log, "same instant")
			m.AfterFunc(time.Second, func() { log = append(log, fmt.Sprintf("next@%v", m.Now().Sub(t0))) })
		})
	})
	m.AfterFunc(-time.Second, func() { log = append(log, "overdue") })
	if len(log) != 0 {
		t.Fatalf("AfterFunc ran a callback on the caller's goroutine: %v", log)
	}
	m.Advance(2 * time.Second)
	want := []string{"overdue", "first", "same instant", "next@2s"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("fired %v, want %v", log, want)
	}
	log = nil
	m.AfterFunc(0, func() { log = append(log, "zero") })
	m.Advance(0)
	if !reflect.DeepEqual(log, []string{"zero"}) {
		t.Errorf("Advance(0) fired %v, want the due zero-delay timer", log)
	}
}

// Callbacks run without the clock's lock held: one may read and arm the
// clock while another goroutine does too.
func TestManualConcurrentUse(t *testing.T) {
	m := NewManual(t0)
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.AfterFunc(time.Duration(i)*time.Millisecond, func() {
					_ = m.Now()
					mu.Lock()
					fired++
					mu.Unlock()
				})
			}
		}()
	}
	wg.Wait()
	m.Advance(time.Second)
	if fired != 200 {
		t.Errorf("%d of 200 timers fired", fired)
	}
}

// Real fires on its own goroutine and stops like time.Timer.
func TestRealAfterFunc(t *testing.T) {
	done := make(chan struct{})
	Real{}.AfterFunc(0, func() { close(done) })
	<-done
	if stop := (Real{}).AfterFunc(time.Hour, func() {}); !stop() {
		t.Error("stop of an armed Real timer reported false")
	}
}
