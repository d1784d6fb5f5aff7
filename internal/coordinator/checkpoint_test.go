package coordinator

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"echelonflow/internal/core"
	"echelonflow/internal/journal"
	"echelonflow/internal/queue"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// walFrames parses a wal image's frame headers ([length][crc][seq], 16
// bytes): the end offset of every whole frame, and whether it is a
// checkpoint (the sequence's top bit).
func walFrames(img []byte) (ends []int, checkpoint []bool) {
	for off := 0; off+16 <= len(img); {
		next := off + 16 + int(binary.BigEndian.Uint32(img[off:]))
		if next > len(img) {
			break
		}
		ends = append(ends, next)
		checkpoint = append(checkpoint, img[off+8]&0x80 != 0)
		off = next
	}
	return ends, checkpoint
}

// crashPoint is one journaled operation: the wal size before it and the
// digest it left. Every operation in the crash scripts writes one state
// record, possibly followed by a checkpoint, so the digest holds from the end
// of its first record on.
type crashPoint struct {
	before int64
	digest digest
}

// crashScript runs ops on c, one crash point each.
func crashScript(t *testing.T, c *Coordinator, ops []func()) []crashPoint {
	t.Helper()
	wal := filepath.Join(c.journal.Dir(), "wal")
	points := []crashPoint{{-1, digestOf(c)}}
	for _, op := range ops {
		info, err := os.Stat(wal)
		if err != nil {
			t.Fatal(err)
		}
		op()
		points = append(points, crashPoint{info.Size(), digestOf(c)})
	}
	return points
}

// wantAt is the digest a wal image cut at byte cut must restore to: that of
// the last operation whose first record is intact.
func wantAt(points []crashPoint, ends []int, cut int) digest {
	want := points[0].digest
	for _, p := range points[1:] {
		for _, e := range ends {
			if int64(e) > p.before {
				if e <= cut {
					want = p.digest
				}
				break
			}
		}
	}
	return want
}

// restoreCut replays a crash directory holding the given snapshot file (nil
// for none) and wal image.
func restoreCut(t *testing.T, opts Options, snapshot, wal []byte) digest {
	t.Helper()
	dir := t.TempDir()
	if snapshot != nil {
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	return digestOf(replayed(t, opts, dir))
}

// flowOps releases, then finishes, every flow of groups, one event per op,
// with a tick and a capacity change in between.
func flowOps(t *testing.T, c *Coordinator, groups ...*core.EchelonFlow) []func() {
	var ops []func()
	for _, g := range groups {
		ops = append(ops, func() {
			if err := c.RegisterGroup("a1", g); err != nil {
				t.Fatal(err)
			}
		})
	}
	for k, kind := range []string{wire.EventReleased, wire.EventFinished} {
		for _, g := range groups {
			for _, f := range g.Flows {
				ev := wire.FlowEvent{GroupID: g.ID, FlowID: f.ID, Event: kind}
				ops = append(ops, func() {
					if _, err := c.FlowEvent(ev); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
		ops = append(ops, func() {
			if _, err := c.Tick(); err != nil {
				t.Fatal(err)
			}
		}, func() {
			if err := c.SetCapacity("w1", unit.Rate(7+k), 9); err != nil {
				t.Fatal(err)
			}
		})
	}
	return ops
}

// A crash may cut the wal at any byte. Cut at every byte from the record
// before a checkpoint to the record after the next one, and at every record
// boundary and one byte either side of it everywhere else: each Restore
// equals the live digest at the last intact record — a torn checkpoint leaves
// the previous snapshot and the records after it, which replay to the same
// state bit for bit.
func TestCrashRestoreAtEveryWALByte(t *testing.T) {
	dir := t.TempDir()
	clk := &tickingClock{t: time.Unix(1000, 0)}
	opts := func() Options {
		o := frameOpts(t, clk.now, 6)
		o.SnapshotEvery = 3
		o.Logf = func(string, ...interface{}) {}
		return o
	}
	c, err := Restore(opts(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ga, gb := contendingGroups(t)
	points := crashScript(t, c, flowOps(t, c, ga, gb))
	img, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	ends, checkpoint := walFrames(img)
	if ends[len(ends)-1] != len(img) {
		t.Fatalf("wal image does not end on a frame: %d of %d bytes", ends[len(ends)-1], len(img))
	}
	var cps []int
	for i, cp := range checkpoint {
		if cp {
			cps = append(cps, i)
		}
	}
	if len(cps) < 3 {
		t.Fatalf("the script took %d checkpoints, want at least 3", len(cps))
	}
	cuts := make(map[int]bool)
	for cut := ends[cps[0]-2]; cut <= ends[cps[1]+1]; cut++ {
		cuts[cut] = true
	}
	for _, e := range ends {
		cuts[e-1], cuts[e], cuts[min(e+1, len(img))] = true, true, true
	}
	for cut := range cuts {
		diffDigests(t, wantAt(points, ends, cut), restoreCut(t, opts(), nil, img[:cut]))
		if t.Failed() {
			t.Fatalf("wal cut at byte %d of %d", cut, len(img))
		}
	}
}

// bigGroups are n coflows of m flows each over six hosts: enough state that a
// checkpoint is tens of KB and the wal crosses its rewrite bound within a few
// dozen checkpoints.
func bigGroups(t *testing.T, n, m int) []*core.EchelonFlow {
	t.Helper()
	var groups []*core.EchelonFlow
	for gi := 0; gi < n; gi++ {
		var flows []*core.Flow
		for fi := 0; fi < m; fi++ {
			flows = append(flows, &core.Flow{ID: fmt.Sprintf("g%d.flow-%03d", gi, fi),
				Src: fmt.Sprintf("w%d", 1+fi%6), Dst: fmt.Sprintf("w%d", 1+(fi+1+gi)%6), Size: unit.Bytes(1000 + fi)})
		}
		g, err := core.NewCoflow(fmt.Sprintf("g%d", gi), flows...)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	return groups
}

// A checkpoint that would grow the wal past its bound rewrites the snapshot
// file and truncates the wal. A crash between the rename and the truncation
// leaves the new snapshot file beside the old wal, whose records and
// checkpoints are all stale; a crash after it leaves the new file and a new
// wal, cut anywhere. Each restores the live digest at the last intact record.
func TestCrashRestoreAcrossRewrite(t *testing.T) {
	dir := t.TempDir()
	clk := &tickingClock{t: time.Unix(1000, 0)}
	opts := func() Options {
		o := frameOpts(t, clk.now, 6)
		o.SnapshotEvery = 1
		o.Logf = func(string, ...interface{}) {}
		return o
	}
	c, err := Restore(opts(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ops := flowOps(t, c, bigGroups(t, 4, 120)...)
	snapPath, walPath := filepath.Join(dir, "snapshot"), filepath.Join(dir, "wal")
	var old []byte
	var rewrite digest
	i := 0
	for ; i < len(ops); i++ {
		if old, err = os.ReadFile(walPath); err != nil {
			t.Fatal(err)
		}
		ops[i]()
		if _, err := os.Stat(snapPath); err == nil {
			rewrite = digestOf(c)
			break
		}
	}
	if i == len(ops) {
		t.Fatalf("%d operations, %d-byte wal: no rewrite", len(ops), len(old))
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	oldEnds, oldCps := walFrames(old)
	nCps := 0
	for _, cp := range oldCps {
		if cp {
			nCps++
		}
	}
	t.Logf("rewrite after %d ops: old wal %d bytes, %d checkpoints; snapshot file %d bytes", i+1, len(old), nCps, len(snap))
	for _, cut := range append(oldEnds, 0, 1, len(old)/2, len(old)-1) {
		diffDigests(t, rewrite, restoreCut(t, opts(), snap, old[:cut]))
		if t.Failed() {
			t.Fatalf("rename without truncation, old wal cut at byte %d of %d", cut, len(old))
		}
	}

	// After the rewrite: records only, so the new wal is cut at every byte.
	c.mu.Lock()
	c.opts.SnapshotEvery = 0
	c.mu.Unlock()
	points := crashScript(t, c, ops[i+1:i+8])
	points[0].digest = rewrite
	img, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	ends, _ := walFrames(img)
	for cut := 0; cut <= len(img); cut++ {
		diffDigests(t, wantAt(points, ends, cut), restoreCut(t, opts(), snap, img[:cut]))
		if t.Failed() {
			t.Fatalf("new wal cut at byte %d of %d", cut, len(img))
		}
	}
}

// A directory the parent wrote, journaled on by this build, restores bit for
// bit: the parent's snapshot file and records, then records appended after
// them, then a checkpoint and more records.
func TestRestoreMixedDirectory(t *testing.T) {
	src := filepath.Join("testdata", "journal-pr30", "compacted")
	dir := t.TempDir()
	for _, file := range []string{"wal", "snapshot"} {
		data, err := os.ReadFile(filepath.Join(src, file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	clk := &fakeClock{t: time.Unix(20000, 0)}
	opts := func() Options {
		o := jobFrameOpts(t, clk.now)
		o.Logf = func(format string, args ...interface{}) {
			if strings.Contains(format, "skipping") {
				t.Errorf(format, args...)
			}
		}
		return o
	}
	// The live side: the fixture replayed, then journaling on into the same
	// directory without the compaction Restore would take.
	live := replayed(t, opts(), dir)
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live.mu.Lock()
	live.journal = j
	live.mu.Unlock()
	defer live.Close()
	step := func(n int) {
		t.Helper()
		id := fmt.Sprintf("mixed%d", n)
		g, err := core.NewCoflow(id, &core.Flow{ID: id + ".m0", Src: "w1", Dst: "w3", Size: 3000},
			&core.Flow{ID: id + ".m1", Src: "w4", Dst: "w2", Size: 2000})
		if err != nil {
			t.Fatal(err)
		}
		if err := live.RegisterGroup("a9", g); err != nil {
			t.Fatal(err)
		}
		for _, f := range g.Flows {
			clk.advance(time.Second)
			if _, err := live.FlowEvent(wire.FlowEvent{GroupID: g.ID, FlowID: f.ID, Event: wire.EventReleased}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			clk.advance(time.Second)
			if _, err := live.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.SetCapacity("w2", unit.Rate(5+n), 10); err != nil {
			t.Fatal(err)
		}
	}
	fixture, err := journal.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	step(2)
	rec, err := journal.Restore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Snapshot, fixture.Snapshot) || len(rec.Tail) <= len(fixture.Tail) {
		t.Fatal("the directory is not the fixture's snapshot file and records, then more records")
	}
	diffDigests(t, digestOf(live), digestOf(replayed(t, opts(), dir)))

	live.mu.Lock()
	live.snapshotLocked()
	live.mu.Unlock()
	step(3)
	if rec, err = journal.Restore(dir); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rec.Snapshot, fixture.Snapshot) || len(rec.Tail) == 0 {
		t.Fatal("the checkpoint was not adopted over the snapshot file")
	}
	diffDigests(t, digestOf(live), digestOf(replayed(t, opts(), dir)))
}

// Regression: a v4 flow event whose offset bits were NaN passed Recv, and
// applying it set the flow's remaining volume to NaN — a value no record
// could then carry, so the event was silently left out of the WAL. The
// decoder now refuses non-finite floats; behind it the coordinator refuses a
// resume offset outside [0, size], NaN included, with an error frame and
// nothing applied or journaled.
func TestNonFiniteOffsetRefused(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c, err := Restore(frameOpts(t, clk.now, 3), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterGroup("a1", pipelineGroup(t)); err != nil {
		t.Fatal(err)
	}
	s := attachSession(c, "a1")
	clk.advance(time.Second)
	if _, err := c.FlowEvent(wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventReleased}); err != nil {
		t.Fatal(err)
	}
	for len(s.out) > 0 {
		<-s.out
	}
	want, seq := modelOf(c), c.journal.Seq()
	for _, off := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		ev := wire.FlowEvent{GroupID: "job/pp", FlowID: "f0", Event: wire.EventResumed, Offset: unit.Bytes(off)}
		for _, msg := range []wire.Message{
			{Type: wire.TypeFlowEvent, FlowEvent: &ev},
			{Type: wire.TypeFlowBatch, FlowBatch: &wire.FlowBatch{Events: []wire.FlowEvent{ev}}},
		} {
			// The session's worker turns a returned error into an error frame.
			var errs []string
			if err := c.handleMessage(s, msg); err != nil {
				errs = append(errs, err.Error())
			}
			for len(s.out) > 0 {
				if m := <-s.out; m.Type == wire.TypeError {
					errs = append(errs, m.Error.Msg)
				}
			}
			if len(errs) != 1 {
				t.Errorf("%s with offset %v: error frames %q, want one", msg.Type, off, errs)
			}
		}
	}
	diffModels(t, want, modelOf(c))
	if c.journal.Seq() != seq || c.journal.Broken() != nil {
		t.Errorf("refused events journaled %d records (broken: %v)", c.journal.Seq()-seq, c.journal.Broken())
	}
}

// A record the coordinator cannot encode is a mutation the WAL would miss:
// the journal latches broken, as after a failed append, so the durability
// barrier refuses to acknowledge anything after it.
func TestRecordEncodeFailureLatchesBroken(t *testing.T) {
	c, err := Restore(frameOpts(t, nil, 3), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.mu.Lock()
	c.appendJournalLocked(journalEvent{Kind: jCapacity, Host: "w1", Egress: unit.Rate(math.NaN())})
	c.mu.Unlock()
	if c.journal.Broken() == nil || c.journal.Flush() == nil {
		t.Fatal("an unencodable record left the journal healthy")
	}
	if !c.journalBrokenSeen {
		t.Error("the broken journal was not announced")
	}
}

// BenchmarkCoordinator_Compaction is one compaction — snapshot assembly, the
// binary encode and the journal checkpoint — at 64, 256 and 1024 admitted
// flows on live-durable's journal configuration (5 ms group-commit), for
// BENCH_journal.json: ns and allocs per compaction and the payload bytes.
func BenchmarkCoordinator_Compaction(b *testing.B) {
	for _, flows := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			opts := frameOpts(b, nil, 64)
			opts.Queue = queue.New(queue.Options{})
			opts.GroupCommit = 5 * time.Millisecond
			opts.Logf = func(string, ...interface{}) {}
			c, err := Restore(opts, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			for i := 0; c.admittedFlows() < flows; i++ {
				if err := c.SubmitJob("a1", submitSpec(fmt.Sprintf("job%d", i), 4)); err != nil {
					b.Fatal(err)
				}
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			c.snapshotLocked()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.snapshotLocked()
			}
			b.StopTimer()
			b.ReportMetric(float64(len(c.jbuf)), "payload-bytes")
			b.ReportMetric(float64(c.admittedFlowsLocked()), "flows")
		})
	}
}

func (c *Coordinator) admittedFlows() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admittedFlowsLocked()
}

func (c *Coordinator) admittedFlowsLocked() int {
	n := 0
	for _, g := range c.groups {
		n += len(g.flows)
	}
	return n
}
