package check

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/coordinator"
	"echelonflow/internal/core"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/telemetry"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// quickSeeds is the fixed tier-1 seed set: small enough to keep the test
// fast, large enough to cover every generator mode (jobs, ad-hoc DAGs,
// faults, interval cadences) several times over.
var quickSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}

// TestCheck_Quick runs every oracle — invariant and differential — over the
// fixed seed set and requires zero violations.
func TestCheck_Quick(t *testing.T) {
	for _, seed := range quickSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			out := RunSeed(seed, Config{})
			for _, v := range out.Violations {
				t.Errorf("seed %d: %s: %s", seed, v.Oracle, v.Detail)
			}
			if out.Flows == 0 {
				t.Errorf("seed %d generated no flows", seed)
			}
		})
	}
}

// TestCheck_SimVsLive exercises the sim-vs-live differential oracle alone:
// replaying the simulated flow events against a live coordinator must
// reproduce references, tardiness and the initial allocation.
func TestCheck_SimVsLive(t *testing.T) {
	for _, seed := range quickSeeds[:8] {
		out := RunSeed(seed, Config{Oracles: []string{OracleLive}})
		for _, v := range out.Violations {
			t.Errorf("seed %d: %s: %s", seed, v.Oracle, v.Detail)
		}
	}
}

// TestCheck_JournalRestore exercises the crash/Restore differential oracle
// alone: a coordinator killed mid-replay and rebuilt from its journal must
// match the uninterrupted run bit-for-bit.
func TestCheck_JournalRestore(t *testing.T) {
	for _, seed := range quickSeeds[:8] {
		out := RunSeed(seed, Config{Oracles: []string{OracleJournal}})
		for _, v := range out.Violations {
			t.Errorf("seed %d: %s: %s", seed, v.Oracle, v.Detail)
		}
	}
}

// TestCheck_CoalescedJournalArmBatches keeps the journal oracle's coalesced
// arm from passing vacuously: batches of several events form, and its
// crashes kill coordinators with a batch still open (the event before the
// crash is a flow event, whose window has not ended at that instant).
func TestCheck_CoalescedJournalArmBatches(t *testing.T) {
	reg := telemetry.NewRegistry()
	hooks := replayHooks{tweak: func(o *coordinator.Options) { o.Coalesce, o.Metrics = replayCoalesce, reg }}
	openAtCrash := 0
	for _, seed := range quickSeeds[:8] {
		c, err := Generate(seed).compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		res, err := runSim(c, canonicalScheduler())
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		evs := buildReplayEvents(c, res)
		if len(evs) < 2 {
			continue
		}
		if _, err := replayRunExt(c, res, "", nil, hooks); err != nil {
			t.Fatalf("seed %d: coalesced replay: %v", seed, err)
		}
		if evs[len(evs)/2-1].kind != 0 {
			openAtCrash++
		}
	}
	events := reg.Counter(coordinator.MetricCoalescedEvents, "").Value()
	batches := reg.Counter(coordinator.MetricCoalesceBatches, "").Value()
	t.Logf("%d events in %d batches; %d crashes inside an open batch", events, batches, openAtCrash)
	if events <= batches {
		t.Errorf("%d events in %d batches: no batch held more than one event", events, batches)
	}
	if openAtCrash == 0 {
		t.Error("no crash point falls inside an open batch")
	}
}

// TestCheck_Deterministic pins the harness's reproducibility contract: the
// same seed yields byte-identical scenarios and deep-equal outcomes.
func TestCheck_Deterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 13} {
		a, err := Generate(seed).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(seed).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: Generate is not deterministic", seed)
		}
		o1 := RunSeed(seed, Config{Oracles: ResultOracles()})
		o2 := RunSeed(seed, Config{Oracles: ResultOracles()})
		if !reflect.DeepEqual(o1, o2) {
			t.Errorf("seed %d: Run is not deterministic: %+v vs %+v", seed, o1, o2)
		}
	}
}

// TestCheck_ScenarioRoundTrip pins the JSON repro format: marshal → parse →
// marshal is the identity.
func TestCheck_ScenarioRoundTrip(t *testing.T) {
	for _, seed := range quickSeeds {
		sc := Generate(seed)
		data, err := sc.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		again, err := back.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("seed %d: round trip not identity:\n%s\nvs\n%s", seed, data, again)
		}
	}
}

// brokenScenario is a hand-written scenario with several flows, used to
// prove the harness catches a deliberately infeasible scheduler.
func brokenScenario() *Scenario {
	sc := &Scenario{
		Hosts: []HostSpec{
			{Name: "a", Egress: 2, Ingress: 2},
			{Name: "b", Egress: 2, Ingress: 2},
			{Name: "c", Egress: 2, Ingress: 2},
		},
	}
	for i := 0; i < 6; i++ {
		src, dst := "a", "b"
		if i%2 == 1 {
			src, dst = "b", "c"
		}
		sc.Nodes = append(sc.Nodes, NodeSpec{
			ID: fmt.Sprintf("f%d", i), Kind: "comm", Src: src, Dst: dst, Size: unit.Bytes(1 + i),
		})
	}
	return sc
}

// TestCheck_ShrinkerFindsMinimalRepro breaks feasibility on purpose — an
// Overdrive scheduler that triples every allocated rate — and requires the
// shrinker to reduce the failing scenario to at most 3 flows (the
// acceptance bound; the true minimum here is a single flow).
func TestCheck_ShrinkerFindsMinimalRepro(t *testing.T) {
	cfg := Config{
		Oracles:   []string{OracleFeasible},
		Scheduler: func() sched.Scheduler { return Overdrive{Inner: sched.Fair{}, Factor: 3} },
	}
	sc := brokenScenario()
	out := Run(sc, cfg)
	if !out.Failed() {
		t.Fatal("overdriven scheduler did not trip the feasibility oracle")
	}
	min := Shrink(sc, cfg, 0)
	mo := Run(min, cfg)
	if !mo.Failed() {
		t.Fatal("shrunk scenario no longer fails")
	}
	if mo.Violations[0].Oracle != OracleFeasible {
		t.Fatalf("shrunk scenario fails a different oracle: %s", mo.Violations[0].Oracle)
	}
	if mo.Flows > 3 {
		t.Errorf("shrunk repro has %d flows, want <= 3", mo.Flows)
	}

	dir := t.TempDir()
	path, err := WriteRepro(dir, 42, min, mo.Violations[0])
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	ro := Run(back, cfg)
	if !ro.Failed() {
		t.Error("reparsed repro no longer fails")
	}
	if filepath.Base(path) != "seed-42.json" {
		t.Errorf("unexpected repro name %s", path)
	}
}

// TestCheck_OracleCatchesOversubscription drives the full generated corpus
// through the broken scheduler: the feasibility oracle must fire for the
// generated scenarios too, not just hand-written ones.
func TestCheck_OracleCatchesOversubscription(t *testing.T) {
	cfg := Config{
		Oracles:   []string{OracleFeasible},
		Scheduler: func() sched.Scheduler { return Overdrive{Inner: sched.Fair{}, Factor: 3} },
	}
	fired := 0
	for _, seed := range quickSeeds[:6] {
		if RunSeed(seed, cfg).Failed() {
			fired++
		}
	}
	if fired == 0 {
		t.Error("feasibility oracle never fired under an oversubscribing scheduler")
	}
}

// TestCheck_DeltaVsFull exercises the delta-vs-full differential oracle
// alone over the full quick seed set (fault schedules included): every
// accepted patch bit-equal to a full pass on replanned groups, stale state
// always refused.
func TestCheck_DeltaVsFull(t *testing.T) {
	for _, seed := range quickSeeds {
		out := RunSeed(seed, Config{Oracles: []string{OracleDelta}})
		for _, v := range out.Violations {
			t.Errorf("seed %d: %s: %s", seed, v.Oracle, v.Detail)
		}
	}
}

// TestCheck_RejoinRescheduleFailureSurfaces drives the coordinator's public
// API with the Overdrive FailAfter fixture: a crash-recovered group whose
// rejoin reschedule fails must see the error (regression — it used to be
// logged and swallowed) and stay parked until a reschedule succeeds.
func TestCheck_RejoinRescheduleFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(replayOrigin)
	mkOpts := func(budget *int) coordinator.Options {
		net := fabric.NewNetwork()
		net.AddUniformHosts(10, "a", "b")
		return coordinator.Options{
			Net:               net,
			Scheduler:         Overdrive{Inner: canonicalScheduler(), Factor: 1, FailAfter: budget},
			QuarantineTimeout: time.Hour,
			Clock:             clk,
			Logf:              t.Logf,
		}
	}
	plenty := 1 << 30
	co, err := coordinator.Restore(mkOpts(&plenty), dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.NewCoflow("g", &core.Flow{ID: "f", Src: "a", Dst: "b", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.RegisterGroup("check", g); err != nil {
		t.Fatal(err)
	}
	if _, err := co.FlowEvent(wire.FlowEvent{GroupID: "g", FlowID: "f", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	co.Close()

	// Replay consumes exactly one reschedule (the release record); the
	// rejoin's reschedule is the second call and fails.
	budget := 1
	co2, err := coordinator.Restore(mkOpts(&budget), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if !co2.GroupParked("g") {
		t.Fatal("recovered group not quarantined")
	}
	if err := co2.RegisterGroup("check", g); err == nil {
		t.Fatal("rejoin with a failing scheduler reported success")
	}
	if !co2.GroupParked("g") {
		t.Error("group unparked although its rejoin reschedule failed")
	}
	budget = 1 << 30
	if err := co2.RegisterGroup("check", g); err != nil {
		t.Fatalf("rejoin after scheduler recovery: %v", err)
	}
	if co2.GroupParked("g") {
		t.Error("group still parked after successful rejoin")
	}
}

// TestCheck_ParseRejectsGarbage pins strict scenario parsing.
func TestCheck_ParseRejectsGarbage(t *testing.T) {
	cases := []string{
		`{"hosts":[]}`,
		`{"hosts":[{"name":"a","egress":1,"ingress":1}],"bogus":1}`,
		`{"hosts":[{"name":"a","egress":0,"ingress":1}]}`,
		`{"hosts":[{"name":"a","egress":1,"ingress":1}],"nodes":[{"id":"x","kind":"comm","src":"a","dst":"zzz"}]}`,
		`{"hosts":[{"name":"a","egress":1,"ingress":1}],"interval_only":true}`,
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("Parse accepted invalid scenario %s", c)
		}
	}
}

// TestCheck_DegradeReconverge exercises the overload-degradation oracle: a
// 10x scheduler slowdown injected over the middle third of the replay must
// leave the coordinator answering from the max-min fallback (feasible, never
// stalled), keep finish/tardiness accounting bit-equal, and re-converge
// bit-for-bit with the never-degraded run once the stall clears. Short mode
// runs the tier-1 slice; the full run sweeps 200 seeds.
func TestCheck_DegradeReconverge(t *testing.T) {
	seeds := make([]uint64, 0, 200)
	if testing.Short() {
		seeds = append(seeds, quickSeeds[:8]...)
	} else {
		for s := uint64(1); s <= 200; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			out := RunSeed(seed, Config{Oracles: []string{OracleDegrade}})
			for _, v := range out.Violations {
				t.Errorf("seed %d: %s: %s", seed, v.Oracle, v.Detail)
			}
		})
	}
}

// TestCheck_JournalSurvivesRepeatedCrashes extends the journal oracle to a
// soak: the coordinator is killed and restored from its journal at six
// points spread across the replay, and the outcome must still match the
// uninterrupted run bit-for-bit (allocations modulo the lawful drift shadow
// of in-flight flows, accounting exactly).
func TestCheck_JournalSurvivesRepeatedCrashes(t *testing.T) {
	const kills = 6
	soaked := 0
	for seed := uint64(1); seed <= 40 && soaked < 3; seed++ {
		c, err := Generate(seed).compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		res, err := runSim(c, canonicalScheduler())
		if err != nil {
			t.Fatalf("seed %d: sim: %v", seed, err)
		}
		evs := buildReplayEvents(c, res)
		if len(evs) < 2*(kills+1) {
			continue // too few events to place 6 distinct kill points
		}
		soaked++
		golden, err := replayRun(c, res, "", -1)
		if err != nil {
			t.Fatalf("seed %d: golden replay: %v", seed, err)
		}
		crashSet := make(map[int]bool)
		for i := 1; i <= kills; i++ {
			if at := i * len(evs) / (kills + 1); at > 0 {
				crashSet[at] = true
			}
		}
		crashes := make([]int, 0, len(crashSet))
		for at := range crashSet {
			crashes = append(crashes, at)
		}
		sort.Ints(crashes)
		dir := t.TempDir()
		crashed, err := replayRunExt(c, res, dir, crashes, replayHooks{})
		if err != nil {
			t.Fatalf("seed %d: crash replay: %v", seed, err)
		}
		for _, gid := range c.groupIDs() {
			if golden.refs[gid] != crashed.refs[gid] {
				t.Errorf("seed %d: group %s reference: golden %v vs restored %v", seed, gid, golden.refs[gid], crashed.refs[gid])
			}
			if golden.tards[gid] != crashed.tards[gid] {
				t.Errorf("seed %d: group %s tardiness: golden %v vs restored %v", seed, gid, golden.tards[gid], crashed.tards[gid])
			}
		}
		if golden.total != crashed.total {
			t.Errorf("seed %d: total tardiness: golden %v vs restored %v", seed, golden.total, crashed.total)
		}
		// Allocations must agree except where a crash's drift shadow is
		// active: union the per-crash drift sets, skip instants at or after
		// the first kill while any drifted flow is still in flight.
		firstCrash := evs[crashes[0]].at
		drifted := make(map[string]bool)
		for _, at := range crashes {
			for id := range driftedFlows(res, evs[at].at) {
				drifted[id] = true
			}
		}
		times := make([]unit.Time, 0, len(golden.ratesAt))
		for tt := range golden.ratesAt {
			times = append(times, tt)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for _, tt := range times {
			if tt >= firstCrash && driftActiveAt(res, drifted, tt) {
				continue
			}
			if !reflect.DeepEqual(golden.ratesAt[tt], crashed.ratesAt[tt]) {
				t.Errorf("seed %d: allocations at t=%v: golden %v vs restored %v", seed, tt, golden.ratesAt[tt], crashed.ratesAt[tt])
			}
		}
	}
	if soaked < 3 {
		t.Fatalf("only %d scenarios in seeds 1..40 were rich enough to soak; generator drifted?", soaked)
	}
}
