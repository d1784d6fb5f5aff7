package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/queue"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
)

// digestResult hashes one run at full precision: every flow record in ID
// order, every recorded rate segment in order, the makespan, and the Eq. 4
// total summed in sorted group order.
func digestResult(res *sim.Result) string {
	h := sha256.New()
	bits := func(x float64) uint64 { return math.Float64bits(x) }
	ids := make([]string, 0, len(res.Flows))
	for id := range res.Flows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		f := res.Flows[id]
		fmt.Fprintf(h, "flow %s %s %x %x %x %x\n", id, f.GroupID,
			bits(float64(f.Release)), bits(float64(f.Finish)), bits(float64(f.Deadline)), bits(float64(f.Size)))
	}
	for _, s := range res.Rates {
		fmt.Fprintf(h, "rate %s %x %x %x\n", s.FlowID, bits(float64(s.From)), bits(float64(s.To)), bits(float64(s.Rate)))
	}
	groups := make([]string, 0, len(res.Groups))
	for id := range res.Groups {
		groups = append(groups, id)
	}
	sort.Strings(groups)
	fmt.Fprintf(h, "total %x makespan %x\n", bits(float64(res.TotalTardiness(groups...))), bits(float64(res.Makespan)))
	return hex.EncodeToString(h.Sum(nil))
}

// simRecorded runs a workload with the rate timeline recorded.
func simRecorded(w *ddlt.Workload, net fabric.Fabric, s sched.Scheduler) (*sim.Result, error) {
	simr, err := sim.New(sim.Options{
		Graph: w.Graph, Net: net, Scheduler: s, Arrangements: w.Arrangements, RecordRates: true,
	})
	if err != nil {
		return nil, err
	}
	return simr.Run()
}

// fabricDigests runs every E11, E15 and E16 simulation on the two-tier
// fabrics and returns "name digest" lines in a fixed order.
func fabricDigests(t *testing.T) []string {
	t.Helper()
	var out []string
	add := func(name string, res *sim.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, name+" "+digestResult(res))
	}

	schedulers := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"echelon", func() sched.Scheduler { return sched.EchelonMADD{Backfill: true} }},
		{"coflow", func() sched.Scheduler { return sched.CoflowMADD{Backfill: true} }},
		{"fair", func() sched.Scheduler { return sched.Fair{} }},
		{"delta", func() sched.Scheduler {
			return sched.NewDelta(sched.EchelonMADD{Backfill: true})
		}},
	}
	for _, over := range []float64{1, 2, 4} {
		for _, s := range schedulers {
			name := fmt.Sprintf("e11/oversub%g/%s", over, s.name)
			net, hosts, err := rackFabric(over)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			w, err := rackMixWorkload(hosts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := simRecorded(w, net, s.mk())
			add(name, res, err)
		}
	}

	for _, p := range []queue.Placer{queue.Pack{}, queue.Spread{}, queue.NetAware{}} {
		name := "e15/" + p.Name()
		net, err := e15Fabric()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		placements, err := e15Place(p, net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, err := e15Workload(placements)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := simRecorded(w, net, sched.EchelonMADD{Backfill: true})
		add(name, res, err)
	}

	for _, placement := range []string{"packed", "spread"} {
		for _, backend := range []string{"bigswitch", "leafspine"} {
			name := "e16/" + backend + "/" + placement
			net, err := e16Fabric(backend)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			w, err := e16Workload(placement)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := simRecorded(w, net, sched.EchelonMADD{Backfill: true})
			add(name, res, err)
		}
	}
	return out
}

// TestFabricDigests pins the two-tier experiments bit for bit: every E11,
// E15 and E16 run must hash to the digest recorded in
// testdata/fabric-digests, which was generated when racks were a separate
// big-switch extension. The first diverging run is named.
func TestFabricDigests(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "fabric-digests"))
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
	got := fabricDigests(t)
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
