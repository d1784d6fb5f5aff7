package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRuns loads an -out file: the untraced runs, grouped by workload.
func readRuns(path string) (map[string][]savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string][]savedRun)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r savedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			runs[r.Workload] = append(runs[r.Workload], r)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// what the driver computes spreads with. Fewer than two values have no spread.
func quartiles(values []float64) (q1, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	ld := len(xs)
	if ld < 2 {
		if ld == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// summary is one workload x metric cell of one file.
type summary struct {
	median, spread float64 // spread = (q3-q1)/median
	n              int
}

func summarise(runs []savedRun, metric string) summary {
	var s samples
	for _, r := range runs {
		s.add(r.Metrics[metric])
	}
	out := summary{median: s.median(), n: s.n()}
	if s.n()%2 == 0 && s.n() > 0 { // the conventional median, not nearest-rank
		s.sort()
		out.median = (s.xs[s.n()/2-1] + s.xs[s.n()/2]) / 2
	}
	if q1, q3 := quartiles(s.xs); out.median != 0 {
		out.spread = (q3 - q1) / out.median
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, how the change's
// median moved against the parent's, and judges it by the metric's bound:
// "regressed" when worse by more than the bound, "unresolved" when either
// side's own spread exceeds the bound (the runs cannot tell), else "ok".
func compareFiles(w io.Writer, parentPath, changePath string) (regressed bool, err error) {
	parent, err := readRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-18s %12s %12s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "parent", "change", "worse", "bound", "spr(p)", "spr(c)", "verdict")
	for _, wd := range workloadDefs {
		p, c := parent[wd.Name], change[wd.Name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		for _, runs := range [][]savedRun{p, c} {
			for _, r := range runs {
				if r.Failed > 0 {
					fmt.Fprintf(w, "%-13s seed %d: %d failed operations -> regressed\n", wd.Name, r.Seed, r.Failed)
					regressed = true
				}
			}
		}
		for _, d := range endToEnd {
			sp, sc := summarise(p, d.Name), summarise(c, d.Name)
			worse := 0.0
			if sp.median != 0 {
				worse = (sc.median - sp.median) / sp.median
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			// setup_s is exempt from the spread rule, as in the driver: it is
			// already a median of several set-ups per run.
			case d.Name != "setup_s" && max(sp.spread, sc.spread) > d.Bound:
				verdict = "unresolved (spread > bound)"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-13s %-18s %12.5g %12.5g %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s\n",
				wd.Name, d.Name, sp.median, sc.median, worse*100, d.Bound*100, sp.spread*100, sc.spread*100, verdict)
		}
	}
	return regressed, nil
}
