// Command benchmark is the control plane's one benchmark: four workloads
// against an in-process coordinator on loopback TCP (or the bare simulator),
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. BENCHMARK.json at the repository root is its contract with the
// driver; README.md explains every workload and metric.
//
//	bash benchmark/run.sh --workload live-small --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// outMetric is one value of the result line.
type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outLine is the last line of standard output.
type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// savedRun is one line of an -out file: what -compare reads back.
type savedRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    int                `json:"trace"`
	Failed   int                `json:"failed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred clean-up happens.
func run() int {
	name := flag.String("workload", "", "live-small | live-large | live-durable | sim-mix")
	seed := flag.Int64("seed", 1, "workload generator seed")
	secs := flag.Float64("seconds", runSeconds, "how long the measured phase lasts")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := flag.String("out", "", "append the run's metrics as one JSON line to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare parent.jsonl change.jsonl")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	if *printManifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			return complain(fmt.Errorf("-compare takes two files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return complain(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return complain(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return complain(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Pinned so a run means the same on any host: C tenant connections on
	// GOMAXPROCS = C processors.
	conns := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(conns)
	tmp, err := os.MkdirTemp("", "echelon-bench-")
	if err != nil {
		return complain(err)
	}
	defer os.RemoveAll(tmp)

	cfg := runConfig{
		env:     runEnv{seed: *seed, conns: conns, tmp: tmp, traced: *trace == 1},
		measure: time.Duration(*secs * float64(time.Second)), setups: setups, strict: true,
		traceDir: "benchmark/out", sim: simMixFull,
	}
	t0 := time.Now()
	res, err := runWorkload(*name, cfg)
	if err != nil {
		return complain(err)
	}

	defs := endToEnd
	if cfg.env.traced {
		defs = perLayer
	}
	line := outLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]outMetric, len(defs))}
	for _, l := range res.report {
		fmt.Println(l)
	}
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	for _, d := range defs {
		v := res.metrics[d.Name]
		line.Metrics[d.Name] = outMetric{v, d.Unit}
		fmt.Printf("%-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Printf("%s: seed %d, %d connections, whole run %.1fs\n", *name, *seed, conns, time.Since(t0).Seconds())
	if *out != "" {
		if err := appendRun(*out, savedRun{*name, *seed, *trace, res.failed, res.metrics}); err != nil {
			return complain(err)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return complain(err)
	}
	fmt.Println(string(b))
	if !res.correct {
		return 1
	}
	return 0
}

func appendRun(path string, r savedRun) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func complain(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}
