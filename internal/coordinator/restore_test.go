package coordinator

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"echelonflow/internal/clock"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/wire"
)

// restoreOpts builds Options for a journaled coordinator on a Manual clock.
func restoreOpts(t *testing.T, clk *clock.Manual) Options {
	t.Helper()
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	return Options{
		Net:               net,
		Scheduler:         sched.EchelonMADD{Backfill: true},
		QuarantineTimeout: time.Hour,
		Clock:             clk,
		Logf:              t.Logf,
	}
}

// An empty (or missing) journal directory is a fresh start: the coordinator
// behaves exactly like New, with journaling armed for next time.
func TestRestoreEmptyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-created")
	clk := clock.NewManual(time.Unix(1000, 0))
	c, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.groups) != 0 {
		t.Fatalf("fresh restore recovered %d groups", len(c.groups))
	}
	if err := c.RegisterGroup("a1", pipelineGroup(t)); err != nil {
		t.Fatal(err)
	}
	if c.GroupParked("job/pp") {
		t.Error("freshly registered group parked")
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
}

// Crash-and-restore reproduces reference times and achieved tardiness
// bit-for-bit, parks the recovered groups, and lets the owner rejoin.
func TestRestoreReplaysState(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	c, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	wantRef, wantTard, err := c.GroupStatus("job/pp")
	if err != nil {
		t.Fatal(err)
	}
	// Crash: no graceful shutdown, the file handle is simply abandoned.
	// Every append was fsynced, so the journal is complete.
	c.Close()

	c2, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	gotRef, gotTard, err := c2.GroupStatus("job/pp")
	if err != nil {
		t.Fatalf("group lost in restore: %v", err)
	}
	if gotRef != wantRef || gotTard != wantTard {
		t.Errorf("restored ref/tardiness = %v/%v, want %v/%v", gotRef, gotTard, wantRef, wantTard)
	}
	if !c2.GroupParked("job/pp") {
		t.Error("recovered group not quarantined while its agent is away")
	}
	// The agent redials and re-announces: the group revives with its state.
	if err := c2.RegisterGroup("a1", g); err != nil {
		t.Fatalf("rejoin after restore: %v", err)
	}
	if c2.GroupParked("job/pp") {
		t.Error("group still parked after rejoin")
	}
	if _, tard, _ := c2.GroupStatus("job/pp"); tard != wantTard {
		t.Errorf("rejoin reset tardiness to %v, want %v", tard, wantTard)
	}
	// In-flight f1 resumes from its acked offset rather than restarting.
	if _, err := c2.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f1", Event: wire.EventResumed, Offset: 5}); err != nil {
		t.Fatal(err)
	}
	if got := c2.groups["job/pp"].flows["f1"].remaining; got != 15 {
		t.Errorf("resumed remaining = %v, want 15", got)
	}
}

// A torn final record — the crash hit mid-append — loses only that record.
func TestRestoreTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	c, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("a1", pipelineGroup(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// The release record was torn off; the registration survives.
	if _, _, err := c2.GroupStatus("job/pp"); err != nil {
		t.Fatalf("group lost to a torn tail: %v", err)
	}
	if c2.groups["job/pp"].flows["f0"].released {
		t.Error("torn release record replayed")
	}
}

// A crash between the snapshot rename and the wal truncation leaves stale
// records before the snapshot point; replay must not apply them twice.
// The stale prefix includes the group's registration, so double-applying
// would surface as a duplicate re-registration after replay.
func TestRestoreSnapshotNewerThanTail(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	c, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("a1", pipelineGroup(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal")
	pre, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.snapshotLocked() // truncates the wal
	c.mu.Unlock()
	clk.Advance(2 * time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventFinished}); err != nil {
		t.Fatal(err)
	}
	_, wantTard, _ := c.GroupStatus("job/pp")
	c.Close()
	// Reconstruct the torn-compaction layout: pre-snapshot records back in
	// front of the post-snapshot tail.
	post, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, append(append([]byte{}, pre...), post...), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(c2.groups) != 1 {
		t.Fatalf("recovered %d groups, want 1", len(c2.groups))
	}
	if _, tard, _ := c2.GroupStatus("job/pp"); tard != wantTard {
		t.Errorf("restored tardiness = %v, want %v", tard, wantTard)
	}
}

// A duplicated register record in the tail (torn-truncation leftovers
// without a covering snapshot) is skipped with a log line, not fatal.
func TestRestoreDuplicateRegisterSkipped(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	c, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("a1", pipelineGroup(t)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the whole log; the second pass re-registers every group.
	// Reopening rewrites sequence numbers is not needed: Restore tolerates
	// the duplicate by skipping the failing record.
	if err := os.WriteFile(wal, append(data, data...), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Restore(restoreOpts(t, clk), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(c2.groups) != 1 {
		t.Errorf("recovered %d groups, want 1 (duplicate register skipped)", len(c2.groups))
	}
}

// Quarantine expiry runs on the coordinator clock: a rejoin landing a
// nanosecond before the deadline beats eviction, and the stale timer then
// fires harmlessly; with no rejoin the group goes exactly at the deadline.
func TestQuarantineRejoinAtDeadline(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	net := fabric.NewNetwork()
	net.AddUniformHosts(10, "w1", "w2", "w3")
	c, err := New(Options{
		Net: net, Scheduler: sched.EchelonMADD{Backfill: true},
		QuarantineTimeout: 10 * time.Second, Clock: clk, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := pipelineGroup(t)
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatal(err)
	}
	present := func() bool {
		_, _, err := c.GroupStatus("job/pp")
		return err == nil
	}
	c.dropSession(&session{agent: "a1"})
	if !c.GroupParked("job/pp") {
		t.Fatal("group not parked")
	}
	clk.Advance(10*time.Second - time.Nanosecond)
	if !present() {
		t.Fatal("evicted before the quarantine window elapsed on the coordinator clock")
	}
	if err := c.RegisterGroup("a1", g); err != nil {
		t.Fatalf("rejoin at deadline: %v", err)
	}
	clk.Advance(time.Nanosecond) // the pending timer fires
	if !present() {
		t.Error("stale timer evicted a group that rejoined before the deadline")
	}
	if c.GroupParked("job/pp") {
		t.Error("group still parked after deadline rejoin")
	}

	// Round two, no rejoin: evicted at the deadline, not a nanosecond before.
	c.dropSession(&session{agent: "a1"})
	clk.Advance(10*time.Second - time.Nanosecond)
	if !present() {
		t.Fatal("evicted before the quarantine window elapsed")
	}
	clk.Advance(time.Nanosecond)
	if present() {
		t.Error("expired quarantine did not evict")
	}
}

// Capacity mutations must survive snapshot compaction: jCapacity lives in
// the WAL tail, which compaction discards, so the snapshot itself has to
// carry current NIC capacities. Before the fix the restored fabric
// silently reverted to its construction-time capacities whenever a
// snapshot landed after a degrade.
func TestRestoreCapacitySurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	opts := restoreOpts(t, clk)
	opts.SnapshotEvery = 1 // compact after every append: no jCapacity survives in the tail
	c, err := Restore(opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup("a1", pipelineGroup(t)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetCapacity("w1", 2.5, 1.5); err != nil {
		t.Fatal(err)
	}
	// One more journaled event so the snapshot that compacts away the
	// capacity record is provably the latest state.
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	c.Close() // crash semantics are covered above; state is already compacted

	c2, err := Restore(restoreOpts(t, clk), dir) // fresh net at original capacities
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	eg, in, ok := c2.opts.Net.Capacity("w1")
	if !ok {
		t.Fatal("host w1 missing after restore")
	}
	if eg != 2.5 || in != 1.5 {
		t.Errorf("restored capacity of w1 = %v/%v, want 2.5/1.5 (degrade lost in compaction)", eg, in)
	}
	// Untouched hosts stay at their construction-time capacities.
	if eg, in, _ := c2.opts.Net.Capacity("w2"); eg != 10 || in != 10 {
		t.Errorf("restored capacity of w2 = %v/%v, want 10/10", eg, in)
	}
}
