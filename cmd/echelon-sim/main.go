// Command echelon-sim runs one DDLT training job on the fluid fabric under
// a chosen scheduler and prints the timeline, per-flow report, and group
// tardiness — a workbench for exploring scheduling behaviour.
//
// Usage:
//
//	echelon-sim -paradigm pp -scheduler echelon -workers 4 -cap 4
//	echelon-sim -paradigm fsdp -scheduler coflow -iterations 2 -gantt
//	echelon-sim -paradigm pp -cap 6 -params 2 -acts 5 -faults examples/faults/chaos.json
//	echelon-sim -paradigm dp -fabric leafspine:hosts=2,spines=2,oversub=4
package main

import (
	"flag"
	"fmt"
	"os"

	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/faults"
	"echelonflow/internal/metrics"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/trace"
	"echelonflow/internal/unit"
)

func main() {
	var (
		paradigm   = flag.String("paradigm", "pp", "dp | ps | pp | 1f1b | tp | fsdp")
		scheduler  = flag.String("scheduler", "echelon", "echelon | echelon-gedf | coflow | fair | srpt | fifo | edf")
		workers    = flag.Int("workers", 4, "worker count")
		layers     = flag.Int("layers", 4, "model layers")
		micro      = flag.Int("micro", 4, "micro-batches (pp)")
		iterations = flag.Int("iterations", 1, "training iterations")
		capacity   = flag.Float64("cap", 4, "per-host NIC capacity (bytes/s)")
		params     = flag.Float64("params", 4, "per-layer parameter bytes")
		acts       = flag.Float64("acts", 4, "per-layer activation bytes")
		fwd        = flag.Float64("fwd", 1, "per-layer forward time (s)")
		bwd        = flag.Float64("bwd", 1, "per-layer backward time (s)")
		gantt      = flag.Bool("gantt", true, "print the compute timeline")
		flows      = flag.Bool("flows", false, "print the per-flow report")
		faultsFile = flag.String("faults", "", "JSON fault schedule to replay (see examples/faults/)")
		fabricFlag = flag.String("fabric", "bigswitch", "network model: bigswitch | leafspine[:hosts=N,spines=N,oversub=R]")
	)
	flag.Parse()

	spec, err := fabric.ParseSpec(*fabricFlag)
	if err != nil {
		fatal(err)
	}

	w, err := buildJob(*paradigm, *workers, *layers, *micro, *iterations,
		unit.Bytes(*params), unit.Bytes(*acts), unit.Time(*fwd), unit.Time(*bwd))
	if err != nil {
		fatal(err)
	}
	s, err := pickScheduler(*scheduler)
	if err != nil {
		fatal(err)
	}
	caps := make([]fabric.HostCap, len(w.Hosts))
	for i, name := range w.Hosts {
		caps[i] = fabric.HostCap{Name: name, Egress: unit.Rate(*capacity), Ingress: unit.Rate(*capacity)}
	}
	net, err := spec.Build(caps)
	if err != nil {
		fatal(err)
	}
	opts := sim.Options{Graph: w.Graph, Net: net, Scheduler: s, Arrangements: w.Arrangements}
	if *faultsFile != "" {
		schedF, err := faults.Load(*faultsFile)
		if err != nil {
			fatal(err)
		}
		opts.CapacityChanges, opts.Dilations, err = faults.CompileSim(schedF, net)
		if err != nil {
			fatal(err)
		}
	}
	simr, err := sim.New(opts)
	if err != nil {
		fatal(err)
	}
	res, err := simr.Run()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("paradigm=%s scheduler=%s workers=%d layers=%d iterations=%d capacity=%g\n",
		*paradigm, s.Name(), *workers, *layers, *iterations, *capacity)
	fmt.Printf("makespan: %v  (per iteration: %v)  scheduler calls: %d\n\n",
		res.Makespan, res.Makespan/unit.Time(*iterations), res.SchedulerCalls)

	if *gantt {
		fmt.Println(trace.Gantt(res, w.Graph, 96))
	}

	tb := metrics.NewTable("group", "arrangement", "reference", "tardiness", "CCT")
	for _, gid := range w.Graph.Groups() {
		gr := res.Groups[gid]
		tb.AddRowf(gid, gr.Group.Arrangement.Name(), float64(gr.Reference),
			float64(gr.Tardiness), float64(gr.CompletionTime))
	}
	fmt.Println(tb.String())

	if *flows {
		fmt.Println(trace.FormatFlowReport(trace.FlowReport(res, "")))
	}
}

// buildJob compiles the requested paradigm with uniform layers.
func buildJob(paradigm string, workers, layers, micro, iterations int,
	params, acts unit.Bytes, fwd, bwd unit.Time) (*ddlt.Workload, error) {
	names := make([]string, workers)
	for i := range names {
		// Workers are named s0..sN, matching the hosts the shipped fault
		// schedules (examples/faults/) target.
		names[i] = fmt.Sprintf("s%d", i)
	}
	model := ddlt.Uniform("model", layers, params, acts, fwd, bwd)
	switch paradigm {
	case "dp":
		return ddlt.DPAllReduce{Name: "dp", Model: model, Workers: names,
			BucketCount: min(2, layers), Iterations: iterations}.Build()
	case "ps":
		return ddlt.DPParameterServer{Name: "ps", Model: model, Workers: names,
			PS: "ps0", BucketCount: min(2, layers), AggTime: fwd / 4, Iterations: iterations}.Build()
	case "pp":
		return ddlt.PipelineGPipe{Name: "pp", Model: model, Workers: names,
			MicroBatches: micro, Iterations: iterations}.Build()
	case "1f1b":
		return ddlt.Pipeline1F1B{Name: "1f1b", Model: model, Workers: names,
			MicroBatches: micro, Iterations: iterations}.Build()
	case "tp":
		return ddlt.TensorParallel{Name: "tp", Model: model, Workers: names,
			Iterations: iterations}.Build()
	case "fsdp":
		return ddlt.FSDP{Name: "fsdp", Model: model, Workers: names,
			Iterations: iterations}.Build()
	default:
		return nil, fmt.Errorf("unknown paradigm %q (want dp|ps|pp|tp|fsdp)", paradigm)
	}
}

// pickScheduler maps a CLI name to a scheduler.
func pickScheduler(name string) (sched.Scheduler, error) {
	switch name {
	case "echelon":
		return sched.EchelonMADD{Backfill: true}, nil
	case "echelon-minimal":
		return sched.EchelonMADD{}, nil
	case "echelon-gedf":
		return sched.EchelonMADD{Backfill: true, GlobalEDF: true}, nil
	case "edf":
		return sched.EDF{}, nil
	case "coflow":
		return sched.CoflowMADD{Backfill: true}, nil
	case "fair":
		return sched.Fair{}, nil
	case "srpt":
		return sched.SRPT{}, nil
	case "fifo":
		return sched.FIFO{}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "echelon-sim:", err)
	os.Exit(1)
}
