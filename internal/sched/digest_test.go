package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// deltaDigestWant pins deltaDigest per fabric. Regenerate only for an
// intended change of scheduling behaviour: go test -run TestDeltaDigests -v ./internal/sched
var deltaDigestWant = map[string]string{
	"bigswitch": "6890150b0cc3c0738304c9b58a16d7f880738b5457726714dfebbec4f321e852",
	"leafspine": "b6d6afe3e6b8a8e8e863a977921018e35be81f038bdaf940a2377b41dde9d730",
}

// deltaFabrics builds the two fabrics of TestDeltaDigests over 32 hosts: a
// big switch, and a leaf-spine whose 4-host leaves make eightJobs' flows
// cross the core and its jobs share uplinks.
func deltaFabrics(t *testing.T) (map[string]fabric.Fabric, []string) {
	names := make([]string, 32)
	hosts := make([]fabric.HostCap, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("h%02d", i)
		hosts[i] = fabric.HostCap{Name: names[i], Egress: 10, Ingress: 10}
	}
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, names...)
	spec, err := fabric.ParseSpec("leafspine:hosts=4,spines=4,oversub=2")
	if err != nil {
		t.Fatal(err)
	}
	ls, err := spec.Build(hosts)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]fabric.Fabric{"bigswitch": net, "leafspine": ls}, names
}

// deltaDigest drives NewDelta(EchelonMADD{Backfill}) through a
// scripted fluid run of eightJobs and hashes every rate map and every
// DeltaOutcome at full precision. Jobs 0–5 are released at time 0, job 6 at
// step 2 and job 7 at step 5. Each step advances to the next flow finish,
// drops the finished flows (raising their group's achieved tardiness), and
// calls Apply declaring every group that changed; a fallback is answered by
// a full Schedule, as the coordinator does. Step 3 declares nothing, so its
// Apply must fall back on undeclared drift.
func deltaDigest(t *testing.T, net fabric.Fabric, names []string) (digest string, applied, fallbacks int) {
	t.Helper()
	all := eightJobs(t, names)
	late := map[string]int{"job6": 2, "job7": 5}
	snap := &Snapshot{Groups: all.Groups}
	for _, fs := range all.Flows {
		if _, ok := late[fs.GroupID]; !ok {
			snap.Flows = append(snap.Flows, fs)
		}
	}
	d := NewDelta(EchelonMADD{Backfill: true})
	h := sha256.New()
	rates, err := d.Schedule(snap, net)
	if err != nil {
		t.Fatal(err)
	}
	hashRates(h, rates)
	step := 1
	for ; len(snap.Flows) > 0 && step <= 80; step++ {
		dt := unit.Inf
		for _, fs := range snap.Flows {
			dt = unit.MinTime(dt, fs.Remaining.At(rates[fs.Flow.ID]))
		}
		if dt == unit.Inf {
			t.Fatalf("step %d: no flow progresses", step)
		}
		snap.Now += dt
		changed := map[string]bool{}
		var live []*FlowState
		for _, fs := range snap.Flows {
			fs.Remaining -= rates[fs.Flow.ID].Over(dt)
			if !fs.Remaining.Zeroish() {
				live = append(live, fs)
				continue
			}
			gs := snap.Groups[fs.GroupID]
			gs.AchievedTardiness = unit.MaxTime(gs.AchievedTardiness, snap.Now-snap.Deadline(fs))
			changed[fs.GroupID] = true
		}
		for _, fs := range all.Flows {
			if late[fs.GroupID] == step {
				snap.Groups[fs.GroupID].Reference = snap.Now
				live = append(live, fs)
				changed[fs.GroupID] = true
			}
		}
		snap.Flows = live
		var delta Delta
		for id := range changed {
			if step != 3 {
				delta.Groups = append(delta.Groups, id)
			}
		}
		sort.Strings(delta.Groups)
		next, ok, err := d.Apply(snap, net, delta)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		out := d.LastOutcome()
		fmt.Fprintf(h, "step %d now %x outcome %t %q %d %q\n", step, math.Float64bits(float64(snap.Now)),
			out.Applied, out.Reason, out.Held, out.Replanned)
		if ok {
			applied++
		} else {
			fallbacks++
			if next, err = d.Schedule(snap, net); err != nil {
				t.Fatalf("step %d: Schedule: %v", step, err)
			}
		}
		hashRates(h, next)
		rates = next
	}
	if len(snap.Flows) > 0 {
		t.Fatalf("%d flows left after %d steps", len(snap.Flows), step-1)
	}
	return hex.EncodeToString(h.Sum(nil)), applied, fallbacks
}

// hashRates hashes a rate map in flow-ID order, rates as float bits.
func hashRates(h hash.Hash, rates map[string]unit.Rate) {
	ids := make([]string, 0, len(rates))
	for id := range rates {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "rate %s %x\n", id, math.Float64bits(float64(rates[id])))
	}
}

// TestDeltaDigests pins the delta path bit for bit on both fabrics: every
// rate map and outcome of deltaDigest's scripted run must hash to
// deltaDigestWant. The run must patch some events and fall back on others.
func TestDeltaDigests(t *testing.T) {
	nets, names := deltaFabrics(t)
	for _, name := range []string{"bigswitch", "leafspine"} {
		got, applied, fallbacks := deltaDigest(t, nets[name], names)
		t.Logf("%s %s (%d patches, %d fallbacks)", name, got, applied, fallbacks)
		if applied == 0 || fallbacks == 0 {
			t.Errorf("%s: %d patches and %d fallbacks, want some of each", name, applied, fallbacks)
		}
		if got != deltaDigestWant[name] {
			t.Errorf("%s: digest %s, want %s", name, got, deltaDigestWant[name])
		}
	}
}
