package experiments

import (
	"strings"
	"testing"
)

// TestAllExperiments regenerates every paper table/figure and extended
// experiment and requires every machine-checked claim to hold.
func TestAllExperiments(t *testing.T) {
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			if exp.ID == "fig7" && testing.Short() {
				t.Skip("live TCP experiment skipped in -short mode")
			}
			r, err := exp.Run()
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if r.ID != exp.ID {
				t.Errorf("report ID %q != experiment ID %q", r.ID, exp.ID)
			}
			if len(r.Checks) == 0 {
				t.Errorf("%s produced no checks", exp.ID)
			}
			for _, c := range r.Failed() {
				t.Errorf("%s check %q failed: %s", exp.ID, c.Name, c.Detail)
			}
			if t.Failed() {
				t.Logf("full report:\n%s", r.String())
			}
		})
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "demo"}
	r.note("hello %d", 7)
	r.check("good", true, "fine")
	r.check("bad", false, "broken %s", "badly")
	out := r.String()
	for _, want := range []string{"== x: demo ==", "hello 7", "[PASS] good", "[FAIL] bad: broken badly"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if len(r.Failed()) != 1 || r.Failed()[0].Name != "bad" {
		t.Errorf("Failed = %+v", r.Failed())
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) < 15 {
		t.Errorf("only %d experiments registered", len(seen))
	}
}

// TestE12CheckOrder: E12's checks come out in one order, run after run, with
// the per-scheduler checks in the order the schedulers run. (They were
// emitted in map iteration order, so two runs of echelon-bench differed.)
func TestE12CheckOrder(t *testing.T) {
	names := func() []string {
		r, err := ExtChaos()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range r.Checks {
			out = append(out, c.Name)
		}
		return out
	}
	first := names()
	for run := 0; run < 3; run++ {
		if again := names(); strings.Join(again, "\n") != strings.Join(first, "\n") {
			t.Fatalf("run %d checks %q, first run %q", run+2, again, first)
		}
	}
	var order []string
	for _, name := range first {
		if i := strings.LastIndex(name, " ("); strings.HasPrefix(name, "chaos never beats") && i > 0 {
			order = append(order, strings.TrimSuffix(name[i+2:], ")"))
		}
	}
	if want := "echelon-madd+bf coflow-madd+bf fair"; strings.Join(order, " ") != want {
		t.Errorf("per-scheduler checks in order %q, want %q", order, want)
	}
}
