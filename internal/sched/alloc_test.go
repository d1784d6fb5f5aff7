package sched

import (
	"sync"
	"testing"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// rateSink makes the rate map TestScheduleAllocs builds escape, as the maps
// Schedule and Apply return do.
var rateSink map[string]unit.Rate

// TestScheduleAllocs holds a warm EchelonMADD pass to one allocation budget:
// building the rate map it returns. Everything else a pass needs — groups,
// deadline classes, fill plans, sort scratch, validation — is owned by the
// pooled link table and reused. The
// same bound holds for one Apply of a one-group delta, which runs the same
// pass over the replanned component.
func TestScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled link tables at random")
	}
	nets, names := deltaFabrics(t)
	for _, name := range []string{"bigswitch", "leafspine"} {
		t.Run(name, func(t *testing.T) {
			net := nets[name]
			snap := eightJobs(t, names)
			mapOnly := testing.AllocsPerRun(20, func() {
				rates := make(map[string]unit.Rate, len(snap.Flows))
				for _, fs := range snap.Flows {
					rates[fs.Flow.ID] = 1
				}
				rateSink = rates
			})

			e := EchelonMADD{Backfill: true}
			schedule := func() {
				if _, err := e.Schedule(snap, net); err != nil {
					t.Fatal(err)
				}
			}
			schedule()
			if got := testing.AllocsPerRun(20, schedule); got > mapOnly {
				t.Errorf("warm Schedule allocates %.0f times, building its rate map %.0f", got, mapOnly)
			} else {
				t.Logf("warm Schedule allocates %.0f times, building its rate map %.0f", got, mapOnly)
			}

			// One flow of job0 finishes; each Apply replans job0's component.
			d := NewDelta(e)
			if _, err := d.Schedule(snap, net); err != nil {
				t.Fatal(err)
			}
			snap.Flows = snap.Flows[1:]
			apply := func() {
				if _, ok, err := d.Apply(snap, net, Delta{Groups: []string{"job0"}}); err != nil || !ok {
					t.Fatalf("Apply: ok=%v err=%v (%+v)", ok, err, d.LastOutcome())
				}
			}
			apply()
			if got := testing.AllocsPerRun(20, apply); got > mapOnly {
				t.Errorf("warm Apply allocates %.0f times, building its rate map %.0f", got, mapOnly)
			} else {
				t.Logf("warm Apply allocates %.0f times, building its rate map %.0f", got, mapOnly)
			}
		})
	}
}

// Pooled link tables and their path tables must not leak state between
// concurrent passes: four goroutines scheduling their own snapshots through
// one scheduler, alternating between two fabrics, get the allocation a
// scheduler computes alone on each.
func TestPooledStateConcurrent(t *testing.T) {
	nets, names := deltaFabrics(t)
	fabrics := []fabric.Fabric{nets["leafspine"], nets["bigswitch"]}
	var wants []map[string]unit.Rate
	for _, net := range fabrics {
		want, err := EchelonMADD{Backfill: true}.Schedule(eightJobs(t, names), net)
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want)
	}
	e := EchelonMADD{Backfill: true}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		snap := eightJobs(t, names)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := (i + w) % 2
				got, err := e.Schedule(snap, fabrics[f])
				if err != nil {
					t.Error(err)
					return
				}
				for id, r := range wants[f] {
					if got[id] != r {
						t.Errorf("fabric %d, flow %s: rate %v, want %v", f, id, got[id], r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
