// Command echelon-check runs the differential testing harness: it draws
// seeded random scenarios (DDLT jobs, ad-hoc DAGs, fault schedules), checks
// every invariant and differential oracle over them, and shrinks any
// failure to a minimal reproducer under testdata/repros/.
//
// Usage:
//
//	echelon-check -seed 1 -n 100          # check seeds 1..100
//	echelon-check -oracles feasible,live  # only some oracles
//	echelon-check -duration 30s           # stop after a time budget
//	echelon-check -repro path.json        # re-check one saved repro
//
// Output is byte-deterministic for a fixed seed range without -duration
// (the time budget necessarily makes the covered range timing-dependent).
// Exit status is 1 when any oracle fired, 0 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"echelonflow/internal/check"
	"echelonflow/internal/fabric"
)

func main() {
	seed := flag.Uint64("seed", 1, "first generator seed")
	n := flag.Int("n", 100, "number of consecutive seeds to check")
	duration := flag.Duration("duration", 0, "optional wall-clock budget; stops early when exceeded")
	oracles := flag.String("oracles", "all", "comma-separated oracle list ("+strings.Join(check.AllOracles(), ",")+`) or "all"`)
	repros := flag.String("repros", "testdata/repros", "directory for shrunk failing scenarios")
	budget := flag.Int("shrink", 400, "shrinker budget in check runs per failure")
	repro := flag.String("repro", "", "path to a scenario or repro JSON to re-check instead of generating")
	fabricFlag := flag.String("fabric", "bigswitch", "network model scenarios run on: bigswitch | leafspine[:hosts=N,spines=N,oversub=R]")
	verbose := flag.Bool("v", false, "print every seed, not just failures")
	flag.Parse()

	sel, err := check.ParseOracles(*oracles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := check.Config{Oracles: sel}
	cfg.Fabric, err = fabricBuilder(*fabricFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *repro != "" {
		os.Exit(checkRepro(*repro, cfg))
	}

	start := time.Now()
	checked, failures := 0, 0
	for i := 0; i < *n; i++ {
		if *duration > 0 && time.Since(start) > *duration {
			fmt.Printf("time budget exhausted after %d seeds\n", checked)
			break
		}
		s := *seed + uint64(i)
		sc := check.Generate(s)
		out := check.Run(sc, cfg)
		checked++
		if !out.Failed() {
			if *verbose {
				fmt.Printf("seed %d: ok (%d hosts, %d flows, %d computes, %d groups, %d fault events)\n",
					s, out.Hosts, out.Flows, out.Computes, out.Groups, out.FaultEvents)
			}
			continue
		}
		failures++
		v := out.Violations[0]
		fmt.Printf("seed %d: FAIL %s: %s\n", s, v.Oracle, v.Detail)
		for _, extra := range out.Violations[1:] {
			fmt.Printf("seed %d:      %s: %s\n", s, extra.Oracle, extra.Detail)
		}
		min := check.Shrink(sc, cfg, *budget)
		mo := check.Run(min, cfg)
		mv := v
		if mo.Failed() {
			mv = mo.Violations[0]
		}
		path, err := check.WriteRepro(*repros, s, min, mv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: cannot write repro: %v\n", s, err)
			continue
		}
		fmt.Printf("seed %d: shrunk to %d hosts, %d flows, %d computes -> %s\n",
			s, mo.Hosts, mo.Flows, mo.Computes, path)
	}
	fmt.Printf("checked %d seeds, %d failed\n", checked, failures)
	if failures > 0 {
		os.Exit(1)
	}
}

// fabricBuilder maps the -fabric flag to the check harness backend hook.
// bigswitch returns nil, keeping the harness's native (byte-identical)
// default path.
func fabricBuilder(s string) (func(hosts []check.HostSpec) fabric.Fabric, error) {
	spec, err := fabric.ParseSpec(s)
	if err != nil {
		return nil, err
	}
	if spec.Kind == "bigswitch" {
		return nil, nil
	}
	return func(hosts []check.HostSpec) fabric.Fabric {
		caps := make([]fabric.HostCap, len(hosts))
		for i, h := range hosts {
			caps[i] = fabric.HostCap{Name: h.Name, Egress: h.Egress, Ingress: h.Ingress}
		}
		f, err := spec.Build(caps)
		if err != nil {
			panic(err) // geometry was validated by ParseSpec
		}
		return f
	}, nil
}

// checkRepro re-runs one saved scenario (bare, or wrapped in the repro
// envelope WriteRepro emits) and reports its violations.
func checkRepro(path string, cfg check.Config) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sc, err := check.ParseRepro(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	out := check.Run(sc, cfg)
	if !out.Failed() {
		fmt.Printf("%s: ok (%d hosts, %d flows, %d computes)\n", path, out.Hosts, out.Flows, out.Computes)
		return 0
	}
	for _, v := range out.Violations {
		fmt.Printf("%s: FAIL %s: %s\n", path, v.Oracle, v.Detail)
	}
	return 1
}
