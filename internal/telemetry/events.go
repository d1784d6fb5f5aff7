package telemetry

import (
	"sync"
	"time"
)

// Event kinds shared by the live coordinator/agent path and the simulator,
// so E-experiment traces and production traces speak one schema.
const (
	EventRelease    = "release"    // flow became transmittable
	EventFinish     = "finish"     // flow completed; Tardiness is its lateness past the deadline
	EventResume     = "resume"     // rejoined agent resumed an in-flight transfer at an offset
	EventResched    = "reschedule" // scheduler re-ran over the active flow set
	EventAlloc      = "allocation" // allocation deltas pushed to connected agents
	EventRegister   = "register"   // EchelonFlow registered
	EventUnregister = "unregister"
	EventPark       = "park"   // owner died, group quarantined
	EventRevive     = "revive" // owner rejoined, group resumed
	EventEvict      = "evict"  // quarantine expired, group removed
	EventSnapshot   = "journal-snapshot"
	EventFsync      = "journal-fsync" // a journal append fsync exceeded the slow threshold
	EventRedialOK   = "redial-accept"
	EventRedialRej  = "redial-reject"
	EventReconnect  = "reconnect"  // agent re-established its coordinator session
	EventJobQueued  = "job-queued" // job submission accepted into the arrival queue
	EventJobAdmit   = "job-admit"  // queued job placed on hosts and registered
	EventJobReject  = "job-reject" // job refused (bad spec, unsatisfiable placement)
	EventJobDepart  = "job-depart" // admitted job ran to completion and left

	// Overload-protection lifecycle (scheduler deadline budgets, event
	// backpressure, gray-failure quarantine).
	EventDegrade       = "sched-degrade"   // scheduler pass fell back (overrun/error/breaker)
	EventRecover       = "sched-recover"   // primary scheduler back in force
	EventShed          = "submission-shed" // job submission refused above the high-water mark
	EventSendOverflow  = "send-overflow"   // session outbound buffer full; session torn down
	EventSoftQuar      = "soft-quarantine" // straggling agent RTT above threshold; reports deadline-bounded
	EventSoftRelease   = "soft-release"    // straggler's RTT recovered below hysteresis
	EventJournalBroken = "journal-broken"  // WAL append failed; journaling latched off (fail-fast)
)

// Event is one structured lifecycle record. At is scheduler/simulation time
// in seconds; Wall is stamped at ingestion (RFC3339Nano) and is absent from
// simulator-only traces' determinism checks.
type Event struct {
	Seq       uint64  `json:"seq"`
	Wall      string  `json:"wall,omitempty"`
	At        float64 `json:"at"`
	Kind      string  `json:"kind"`
	Group     string  `json:"group,omitempty"`
	Flow      string  `json:"flow,omitempty"`
	Agent     string  `json:"agent,omitempty"`
	Tardiness float64 `json:"tardiness,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// EventLog is a bounded ring of Events: appends never block or allocate
// beyond the fixed buffer, and once full the oldest events are overwritten.
// All methods are safe for concurrent use and on a nil receiver.
type EventLog struct {
	mu    sync.Mutex
	buf   []Event
	start int    // index of the oldest stored event
	n     int    // events currently stored
	seq   uint64 // events ever appended
	clock func() time.Time
}

// DefaultEventCapacity is the ring size when NewEventLog is given a
// non-positive capacity.
const DefaultEventCapacity = 4096

// NewEventLog returns a ring holding up to capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{buf: make([]Event, capacity), clock: time.Now}
}

// Append stamps the event's sequence number and wall time and stores it,
// overwriting the oldest event when the ring is full. No-op on nil.
func (l *EventLog) Append(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	if e.Wall == "" && l.clock != nil {
		e.Wall = l.clock().UTC().Format(time.RFC3339Nano)
	}
	i := (l.start + l.n) % len(l.buf)
	l.buf[i] = e
	if l.n < len(l.buf) {
		l.n++
	} else {
		l.start = (l.start + 1) % len(l.buf)
	}
}

// Tail returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained.
func (l *EventLog) Tail(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Event, n)
	first := l.start + l.n - n
	for i := 0; i < n; i++ {
		out[i] = l.buf[(first+i)%len(l.buf)]
	}
	return out
}

// Total reports how many events were ever appended (including overwritten
// ones).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}
