package sim_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/faults"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/telemetry"
)

// digestCapacity bounds the event stream one digested run may emit; a run
// that overflows the ring fails rather than hashing a truncated stream.
const digestCapacity = 1 << 15

// digestRun hashes everything a run returns at full precision: flow records
// and task spans in ID order, rate segments in order, each group's
// reference, tardiness and completion in ID order, the makespan, the
// scheduler call count, and the event stream in order.
func digestRun(res *sim.Result, evl *telemetry.EventLog) string {
	h := sha256.New()
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	for _, id := range sortedKeys(res.Flows) {
		f := res.Flows[id]
		fmt.Fprintf(h, "flow %s %s %x %x %x %x\n", id, f.GroupID,
			bits(float64(f.Release)), bits(float64(f.Finish)), bits(float64(f.Deadline)), bits(float64(f.Size)))
	}
	for _, id := range sortedKeys(res.Tasks) {
		sp := res.Tasks[id]
		fmt.Fprintf(h, "task %s %x %x\n", id, bits(float64(sp.Start)), bits(float64(sp.End)))
	}
	for _, s := range res.Rates {
		fmt.Fprintf(h, "rate %s %x %x %x\n", s.FlowID, bits(float64(s.From)), bits(float64(s.To)), bits(float64(s.Rate)))
	}
	for _, id := range sortedKeys(res.Groups) {
		g := res.Groups[id]
		fmt.Fprintf(h, "group %s %x %x %x\n", id,
			bits(float64(g.Reference)), bits(float64(g.Tardiness)), bits(float64(g.CompletionTime)))
	}
	fmt.Fprintf(h, "makespan %x calls %d\n", bits(float64(res.Makespan)), res.SchedulerCalls)
	digestEvents(h, evl)
	return hex.EncodeToString(h.Sum(nil))
}

// digestEvents hashes the event stream, every field but the wall stamp.
func digestEvents(h hash.Hash, evl *telemetry.EventLog) {
	for _, e := range evl.Tail(0) {
		fmt.Fprintf(h, "event %d %x %s %s %s %x %q\n", e.Seq, math.Float64bits(e.At), e.Kind, e.Group, e.Flow,
			math.Float64bits(e.Tardiness), e.Detail)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// digestCase is one digested run: opts lacks only the event log, which
// simDigests attaches.
type digestCase struct {
	name string
	opts func(t *testing.T) sim.Options
}

// mixOpts wires a fresh paradigm mix, edited by edit when non-nil, onto a
// fresh fabric with the rate timeline recorded.
func mixOpts(t *testing.T, spec string, s sched.Scheduler, edit func(*ddlt.Workload)) sim.Options {
	w := paradigmMix(t)
	if edit != nil {
		edit(w)
	}
	return sim.Options{Graph: w.Graph, Net: mixFabric(t, spec), Scheduler: s,
		Arrangements: w.Arrangements, RecordRates: true}
}

// digestCases lists every digested run in the order of testdata/sim-digests.
func digestCases() []digestCase {
	schedulers := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"echelon", func() sched.Scheduler { return sched.EchelonMADD{Backfill: true} }},
		{"coflow", func() sched.Scheduler { return sched.CoflowMADD{} }},
		{"fair", func() sched.Scheduler { return sched.Fair{} }},
	}
	echelon := schedulers[0].mk
	var cases []digestCase
	for _, spec := range mixFabrics {
		for _, s := range schedulers {
			cases = append(cases, digestCase{"mix/" + shortName(spec) + "/" + s.name, func(t *testing.T) sim.Options {
				return mixOpts(t, spec, s.mk(), nil)
			}})
		}
	}
	cases = append(cases,
		digestCase{"interval/bigswitch/fair", func(t *testing.T) sim.Options {
			o := mixOpts(t, mixFabrics[0], sched.Fair{}, nil)
			o.Interval = 0.5
			return o
		}},
		digestCase{"intervalonly/bigswitch/echelon", func(t *testing.T) sim.Options {
			o := mixOpts(t, mixFabrics[0], echelon(), nil)
			o.Interval, o.IntervalOnly = 0.5, true
			return o
		}},
		digestCase{"intervalonly/leafspine/fair", func(t *testing.T) sim.Options {
			o := mixOpts(t, mixFabrics[1], sched.Fair{}, nil)
			o.Interval, o.IntervalOnly = 0.3, true
			return o
		}},
	)
	for _, spec := range mixFabrics {
		cases = append(cases, digestCase{"chaos/" + shortName(spec) + "/echelon", func(t *testing.T) sim.Options {
			o := mixOpts(t, spec, echelon(), nil)
			fs, err := faults.Load(filepath.Join("..", "..", "examples", "faults", "chaos.json"))
			if err != nil {
				t.Fatal(err)
			}
			o.CapacityChanges, o.Dilations, err = faults.CompileSim(fs, o.Net)
			if err != nil {
				t.Fatal(err)
			}
			return o
		}})
	}
	cases = append(cases,
		digestCase{"chaos-intervalonly/bigswitch/fair", func(t *testing.T) sim.Options {
			o := mixOpts(t, mixFabrics[0], sched.Fair{}, nil)
			o.Interval, o.IntervalOnly = 0.5, true
			o.CapacityChanges = []sim.CapacityChange{
				{At: 4, Host: "s1", Egress: 1, Ingress: 2}, {At: 2.5, Host: "s0", Egress: 3, Ingress: 3},
				{At: 9, Host: "s1", Egress: 6, Ingress: 6},
			}
			o.Dilations = []sim.DilationChange{{At: 1, Host: "s3", Factor: 2}, {At: 6, Host: "s3", Factor: 0.5}}
			return o
		}},
		digestCase{"notbefore/bigswitch/echelon", func(t *testing.T) sim.Options {
			return mixOpts(t, mixFabrics[0], echelon(), gateMix)
		}},
		digestCase{"notbefore/leafspine/fair", func(t *testing.T) sim.Options {
			return mixOpts(t, mixFabrics[1], sched.Fair{}, gateMix)
		}},
		digestCase{"zero/bigswitch/echelon", func(t *testing.T) sim.Options {
			return mixOpts(t, mixFabrics[0], echelon(), zeroMix)
		}},
		digestCase{"zero/leafspine/coflow", func(t *testing.T) sim.Options {
			return mixOpts(t, mixFabrics[1], sched.CoflowMADD{}, zeroMix)
		}},
		digestCase{"zerochain/bigswitch/echelon", func(t *testing.T) sim.Options {
			g, arrs := zeroChain()
			net := fabric.NewNetwork()
			net.AddUniformHosts(2, "a", "b", "c")
			return sim.Options{Graph: g, Net: net, Scheduler: echelon(), Arrangements: arrs, RecordRates: true}
		}},
	)
	// EchelonMADD's other planning modes, each pinned on its own.
	variants := []struct {
		name    string
		s       sched.EchelonMADD
		weights bool
	}{
		{"echelon-plain", sched.EchelonMADD{}, false},
		{"echelon-ltf", sched.EchelonMADD{Order: sched.LargestTardinessFirst, Backfill: true}, false},
		{"echelon-gedf", sched.EchelonMADD{GlobalEDF: true, Backfill: true}, false},
		{"echelon-weighted", sched.EchelonMADD{Weighted: true, Backfill: true}, true},
	}
	for _, spec := range mixFabrics {
		for _, v := range variants {
			cases = append(cases, digestCase{"mix/" + shortName(spec) + "/" + v.name, func(t *testing.T) sim.Options {
				o := mixOpts(t, spec, v.s, nil)
				if v.weights {
					o.Weights = mixWeights(o.Arrangements)
				}
				return o
			}})
		}
	}
	return cases
}

// mixWeights gives the mix's groups weights 1, 2 and 3 in turn, by group ID.
func mixWeights(arrs map[string]core.Arrangement) map[string]float64 {
	weights := make(map[string]float64, len(arrs))
	for i, id := range sortedKeys(arrs) {
		weights[id] = float64(1 + i%3)
	}
	return weights
}

// zeroChain is a hand-built graph of zero-size flows and zero-duration
// computes chained through one instant, interleaved with timed work, gated
// releases and computes contending for one host by Seq.
func zeroChain() (*dag.Graph, map[string]core.Arrangement) {
	g := dag.New()
	add := func(n *dag.Node, deps ...string) {
		g.MustAdd(n)
		for _, d := range deps {
			g.MustDepend(d, n.ID)
		}
	}
	add(&dag.Node{ID: "c0", Kind: dag.Compute, Host: "a", Duration: 1, Seq: 0})
	add(&dag.Node{ID: "z1", Kind: dag.Comm, Src: "a", Dst: "b", Group: "zg", Stage: 0}, "c0")
	add(&dag.Node{ID: "z2", Kind: dag.Comm, Src: "b", Dst: "c", Group: "zg", Stage: 1}, "z1")
	add(&dag.Node{ID: "k1", Kind: dag.Compute, Host: "c", Seq: 1}, "z2")
	add(&dag.Node{ID: "k2", Kind: dag.Compute, Host: "c", Seq: 2}, "k1")
	add(&dag.Node{ID: "f1", Kind: dag.Comm, Src: "c", Dst: "a", Size: 3, Group: "fg", Stage: 0}, "k2")
	add(&dag.Node{ID: "f2", Kind: dag.Comm, Src: "a", Dst: "b", Size: 2, Group: "fg", Stage: 1}, "c0")
	add(&dag.Node{ID: "k3", Kind: dag.Compute, Host: "c", Duration: 2, Seq: 5}, "c0")
	add(&dag.Node{ID: "k4", Kind: dag.Compute, Host: "c", Duration: 1, Seq: 0}, "k2")
	add(&dag.Node{ID: "z3", Kind: dag.Comm, Src: "b", Dst: "a", NotBefore: 1}, "f2")
	add(&dag.Node{ID: "k5", Kind: dag.Compute, Host: "a", Seq: 3, NotBefore: 2.5}, "z3")
	add(&dag.Node{ID: "f3", Kind: dag.Comm, Src: "a", Dst: "c", Size: 1}, "k5", "f1")
	add(&dag.Node{ID: "k6", Kind: dag.Compute, Host: "b", Duration: 0.5, Seq: 0}, "f3", "k3")
	return g, map[string]core.Arrangement{
		"zg": core.Coflow{},
		"fg": core.Pipeline{T: 1},
	}
}

// simDigests runs every digest case and returns "name digest" lines.
func simDigests(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, c := range digestCases() {
		opts := c.opts(t)
		evl := telemetry.NewEventLog(digestCapacity)
		opts.Events = evl
		s, err := sim.New(opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if evl.Total() > digestCapacity {
			t.Fatalf("%s: %d events overflow the %d-event ring", c.name, evl.Total(), digestCapacity)
		}
		out = append(out, c.name+" "+digestRun(res, evl))
	}
	return out
}

// TestSimDigests pins the simulator bit for bit: every run of digestCases
// must hash to the digest recorded in testdata/sim-digests. The first
// diverging run is named.
func TestSimDigests(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "sim-digests"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := simDigests(t)
	for _, line := range got {
		t.Log(line)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("first diverging run: got %q, want %q", got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs digested, testdata lists %d", len(got), len(want))
	}
}
