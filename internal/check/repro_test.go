package check

import (
	"os"
	"path/filepath"
	"testing"

	"echelonflow/internal/fabric"
)

// bindingLeafSpine builds the same two-hosts-per-leaf, two-spine, 2:1
// oversubscribed Clos the nightly leafspine matrix runs, so checked-in
// repros replay against genuinely binding interior links.
func bindingLeafSpine(hosts []HostSpec) fabric.Fabric {
	spec, err := fabric.ParseSpec("leafspine:hosts=2,spines=2,oversub=2")
	if err != nil {
		panic(err)
	}
	caps := make([]fabric.HostCap, 0, len(hosts))
	for _, h := range hosts {
		caps = append(caps, fabric.HostCap{Name: h.Name, Egress: h.Egress, Ingress: h.Ingress})
	}
	f, err := spec.Build(caps)
	if err != nil {
		panic(err)
	}
	return f
}

// TestCheckedInRepros replays every shrunk failure checked into
// testdata/repros under all oracles on both fabric backends; the live
// oracles round-trip every replayed event through the binary wire codec.
// Each file is the minimal scenario for a bug the harness once caught
// (seeds 111 and 197: sub-byte flow sizes scheduled against the
// coordinator's 1-byte remaining floor, diverging live rates from the
// simulator at t=0; seed 110: a NIC degrade compacted out of the journal
// tail, so the restored coordinator planned against construction-time
// capacities — binding only on the leaf-spine replay; seed 1: a
// coordinator killed mid degrade episode replayed the primary scheduler
// where live had pushed max-min fair fallback rates); a regression would
// re-fire its oracle here.
func TestCheckedInRepros(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "repros")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read repro dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		t.Fatalf("no repros found in %s", dir)
	}
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc, err := ParseRepro(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		t.Run(name+"/binary", func(t *testing.T) {
			out := Run(sc, Config{})
			for _, v := range out.Violations {
				t.Errorf("oracle %s fired: %s", v.Oracle, v.Detail)
			}
		})
		t.Run(name+"/leafspine", func(t *testing.T) {
			out := Run(sc, Config{Fabric: bindingLeafSpine})
			for _, v := range out.Violations {
				t.Errorf("oracle %s fired: %s", v.Oracle, v.Detail)
			}
		})
	}
}
