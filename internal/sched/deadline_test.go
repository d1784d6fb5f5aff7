package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// slowScheduler blocks each Schedule call until released (or for a fixed
// delay), counting calls.
type slowScheduler struct {
	mu    sync.Mutex
	calls int
	delay time.Duration
	fail  bool
}

func (s *slowScheduler) Name() string { return "slow" }

func (s *slowScheduler) Schedule(snap *Snapshot, net fabric.Fabric) (map[string]unit.Rate, error) {
	s.mu.Lock()
	s.calls++
	d, fail := s.delay, s.fail
	s.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	if fail {
		return nil, fmt.Errorf("slow failure")
	}
	rates := zeroFill(snap)
	for id := range rates {
		rates[id] = 42 // distinguishable from the Fair fallback
	}
	return rates, nil
}

func (s *slowScheduler) setDelay(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

func (s *slowScheduler) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func TestWithDeadlineZeroBudgetIsIdentity(t *testing.T) {
	s := &slowScheduler{}
	if got := WithDeadline(s, DeadlineOptions{}); got != Scheduler(s) {
		t.Error("zero budget should return the scheduler unchanged")
	}
	if got := WithDeadline(nil, DeadlineOptions{Budget: time.Second}); got != nil {
		t.Error("nil scheduler should pass through")
	}
}

func TestDeadlineIdentityWhenInBudget(t *testing.T) {
	s := &slowScheduler{}
	d := WithDeadline(s, DeadlineOptions{Budget: time.Second})
	if d.Name() != "slow+deadline" {
		t.Errorf("name = %q", d.Name())
	}
	snap, net := instrumentSnapshot(t)
	rates, err := d.Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	if rates["f"] != 42 {
		t.Errorf("rates[f] = %v, want the primary scheduler's 42", rates["f"])
	}
	ctl := d.(DegradeControl)
	if ctl.Degraded() {
		t.Error("in-budget pass must not be degraded")
	}
	if out := ctl.LastDegrade(); out.Degraded || out.Reason != "" {
		t.Errorf("outcome = %+v, want clean", out)
	}
}

func TestDeadlineOverrunFallsBackToFair(t *testing.T) {
	s := &slowScheduler{delay: 200 * time.Millisecond}
	d := WithDeadline(s, DeadlineOptions{Budget: 10 * time.Millisecond, TripAfter: 100})
	snap, net := instrumentSnapshot(t)
	rates, err := d.Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	// Fair max-min on one 100-capacity pair gives the single flow 100.
	if rates["f"] != 100 {
		t.Errorf("rates[f] = %v, want max-min fallback 100", rates["f"])
	}
	ctl := d.(DegradeControl)
	out := ctl.LastDegrade()
	if !out.Degraded || out.Reason != "overrun" {
		t.Errorf("outcome = %+v, want degraded overrun", out)
	}
	if !ctl.Degraded() {
		t.Error("wrapper must report degraded after an overrun")
	}
	// The abandoned pass is still holding the slot: an immediate retry
	// sheds with reason "busy" instead of queueing.
	if _, err := d.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	if out := ctl.LastDegrade(); out.Reason != "busy" {
		t.Errorf("retry reason = %q, want busy", out.Reason)
	}
	ctl.Quiesce() // drain the abandoned pass before the test exits
}

func TestDeadlineErrorFallsBack(t *testing.T) {
	s := &slowScheduler{fail: true}
	d := WithDeadline(s, DeadlineOptions{Budget: time.Second, TripAfter: 100})
	snap, net := instrumentSnapshot(t)
	rates, err := d.Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	if rates["f"] != 100 {
		t.Errorf("rates[f] = %v, want fallback 100", rates["f"])
	}
	if out := d.(DegradeControl).LastDegrade(); out.Reason != "error" {
		t.Errorf("reason = %q, want error", out.Reason)
	}
}

func TestDeadlineBreakerTripsAndRecovers(t *testing.T) {
	s := &slowScheduler{}
	var outcomes []DegradeOutcome
	var omu sync.Mutex
	d := WithDeadline(s, DeadlineOptions{
		Budget:    20 * time.Millisecond,
		TripAfter: 2,
		Cooldown:  400 * time.Millisecond,
		Observer: func(o DegradeOutcome) {
			omu.Lock()
			outcomes = append(outcomes, o)
			omu.Unlock()
		},
	})
	ctl := d.(DegradeControl)
	snap, net := instrumentSnapshot(t)

	ctl.SetStall(100 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := d.Schedule(snap, net); err != nil {
			t.Fatal(err)
		}
		ctl.Quiesce() // let each abandoned pass drain so both count as overruns
	}
	out := ctl.LastDegrade()
	if !out.BreakerOpen {
		t.Fatalf("breaker should be open after 2 overruns, outcome %+v", out)
	}
	// While open (and before the cooldown elapses) calls shed without
	// touching the primary.
	before := s.callCount()
	if _, err := d.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	if got := ctl.LastDegrade(); got.Reason != "breaker-open" {
		t.Errorf("reason = %q, want breaker-open", got.Reason)
	}
	if s.callCount() != before {
		t.Error("breaker-open call must not invoke the primary")
	}

	// After the cooldown the next call probes; with the stall cleared the
	// probe succeeds and closes the breaker.
	ctl.SetStall(0)
	time.Sleep(420 * time.Millisecond)
	rates, err := d.Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	if rates["f"] != 42 {
		t.Errorf("probe rates[f] = %v, want primary 42", rates["f"])
	}
	if ctl.Degraded() {
		t.Error("breaker should be closed after a successful probe")
	}
	omu.Lock()
	last := outcomes[len(outcomes)-1]
	omu.Unlock()
	if last.Degraded {
		t.Errorf("observer's last outcome = %+v, want recovery", last)
	}
}

func TestDeadlineDeltaGatesApplyAfterDegrade(t *testing.T) {
	inner := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	d := WithDeadline(inner, DeadlineOptions{Budget: 50 * time.Millisecond, TripAfter: 100})
	dd, ok := d.(DeltaScheduler)
	if !ok {
		t.Fatal("wrapping a DeltaScheduler must preserve the incremental API")
	}
	if _, ok := d.(interface{ PlanCache() *PlanCache }); !ok {
		t.Fatal("wrapper must forward PlanCache")
	}
	ctl := d.(DegradeControl)
	snap, net := instrumentSnapshot(t)

	// Clean full pass primes the delta path: Apply patches.
	if _, err := d.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := dd.Apply(snap, net, Delta{Groups: []string{"g"}}); err != nil || !ok {
		t.Fatalf("clean Apply: ok=%v err=%v, want applied", ok, err)
	}

	// A degraded full pass gates Apply until the next clean full pass.
	ctl.SetStall(200 * time.Millisecond)
	if _, err := d.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	ctl.Quiesce()
	ctl.SetStall(0)
	if _, ok, _ := dd.Apply(snap, net, Delta{Groups: []string{"g"}}); ok {
		t.Fatal("Apply must be gated after a degraded pass")
	}
	if out := ctl.LastDegrade(); out.Reason != "apply-gated" {
		t.Errorf("reason = %q, want apply-gated", out.Reason)
	}
	if _, err := d.Schedule(snap, net); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := dd.Apply(snap, net, Delta{Groups: []string{"g"}}); err != nil || !ok {
		t.Fatalf("post-recovery Apply: ok=%v err=%v, want applied", ok, err)
	}
}

func TestDeadlinePlainSchedulerDoesNotExposeDelta(t *testing.T) {
	d := WithDeadline(&slowScheduler{}, DeadlineOptions{Budget: time.Second})
	if _, ok := d.(DeltaScheduler); ok {
		t.Error("a plain scheduler's deadline wrapper must not satisfy DeltaScheduler")
	}
}

// A pass that has reported its result must already have given the slot back:
// a caller that starts its next pass at once may never find it "busy". Both
// the Schedule and the Apply path are driven back to back, with a budget no
// healthy pass comes near.
func TestDeadlineBackToBackPassesNeverBusy(t *testing.T) {
	inner := NewDelta(EchelonMADD{Backfill: true, Cache: NewPlanCache()})
	degraded := make(map[string]int)
	d := WithDeadline(inner, DeadlineOptions{
		Budget:   time.Minute,
		Observer: func(out DegradeOutcome) { degraded[out.Reason]++ },
	})
	dd := d.(DeltaScheduler)
	snap, net := instrumentSnapshot(t)
	const passes = 20000
	for i := 0; i < passes; i++ {
		if _, err := d.Schedule(snap, net); err != nil {
			t.Fatal(err)
		}
		if _, _, err := dd.Apply(snap, net, Delta{Groups: []string{"g"}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := degraded[""]; n != 2*passes || len(degraded) != 1 {
		t.Errorf("outcomes by degrade reason = %v, want all %d clean", degraded, 2*passes)
	}
}
