package check

import (
	"fmt"
	"sort"
	"strings"

	"echelonflow/internal/dag"
	"echelonflow/internal/fabric"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// Config selects what a Run checks.
type Config struct {
	// Oracles names the oracles to evaluate; nil means AllOracles().
	Oracles []string
	// Scheduler, when set, overrides the canonical scheduler (a cached
	// backfilled EchelonMADD) for the base simulation. Differential oracles
	// are skipped under an override: they are statements about the
	// canonical scheduler's implementations agreeing with each other.
	Scheduler func() sched.Scheduler
	// Fabric, when set, builds each run's fabric from the scenario's host
	// specs instead of the default big-switch Network — the backend-matrix
	// hook (leaf-spine). Every simulation and oracle replay inside one Run
	// shares the builder, so differential oracles compare like against
	// like. The builder must attach exactly the scenario's hosts with the
	// given NIC capacities.
	Fabric func(hosts []HostSpec) fabric.Fabric
}

// Outcome is the result of checking one scenario.
type Outcome struct {
	Seed        uint64
	Hosts       int
	Computes    int
	Flows       int
	Groups      int
	FaultEvents int
	Makespan    unit.Time
	Violations  []Violation
}

// Failed reports whether any oracle fired.
func (o *Outcome) Failed() bool { return len(o.Violations) > 0 }

// ParseOracles resolves a comma-separated oracle list ("all" or names from
// AllOracles()).
func ParseOracles(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "all" {
		return AllOracles(), nil
	}
	known := make(map[string]bool)
	for _, o := range AllOracles() {
		known[o] = true
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if !known[name] {
			return nil, fmt.Errorf("check: unknown oracle %q (known: %s)", name, strings.Join(AllOracles(), ","))
		}
		out = append(out, name)
	}
	return out, nil
}

// canonicalScheduler is the implementation under differential test: the
// paper's scheduler with every PR 1 optimisation enabled.
func canonicalScheduler() sched.Scheduler {
	return sched.EchelonMADD{Backfill: true, Cache: sched.NewPlanCache()}
}

// runSim executes one simulation of the compiled scenario under s.
func runSim(c *compiled, s sched.Scheduler) (*sim.Result, error) {
	opts, _ := c.simOptions(s)
	simr, err := sim.New(opts)
	if err != nil {
		return nil, err
	}
	return simr.Run()
}

// RunSeed generates the scenario for seed and checks it.
func RunSeed(seed uint64, cfg Config) *Outcome {
	return Run(Generate(seed), cfg)
}

// Run compiles the scenario, simulates it, and evaluates the selected
// oracles. Setup or simulation errors surface as violations of the
// synthetic "run" oracle so the shrinker can minimize them too.
func Run(sc *Scenario, cfg Config) *Outcome {
	out := &Outcome{Seed: sc.Seed, Hosts: len(sc.Hosts)}
	oracles := cfg.Oracles
	if len(oracles) == 0 {
		oracles = AllOracles()
	}
	want := make(map[string]bool, len(oracles))
	for _, o := range oracles {
		want[o] = true
	}

	c, err := sc.compile()
	if err != nil {
		out.Violations = append(out.Violations, vf(OracleRun, "compile: %v", err))
		return out
	}
	if cfg.Fabric != nil {
		c.fabricFn = cfg.Fabric
	}
	for _, n := range c.graph.Nodes() {
		if n.Kind == dag.Compute {
			out.Computes++
		} else {
			out.Flows++
		}
	}
	out.Groups = len(c.groupIDs())
	if !sc.Faults.Empty() {
		out.FaultEvents = len(sc.Faults.Events)
	}

	custom := cfg.Scheduler != nil
	var s sched.Scheduler
	if custom {
		s = cfg.Scheduler()
	} else {
		s = canonicalScheduler()
	}
	res, err := runSim(c, s)
	if err != nil {
		out.Violations = append(out.Violations, vf(OracleRun, "sim: %v", err))
		return out
	}
	out.Makespan = res.Makespan

	for _, o := range ResultOracles() {
		if !want[o] {
			continue
		}
		switch o {
		case OracleFeasible:
			out.Violations = append(out.Violations, oracleFeasible(c, res)...)
		case OracleConserve:
			out.Violations = append(out.Violations, oracleConserve(c, res)...)
		case OracleOrdering:
			out.Violations = append(out.Violations, oracleOrdering(c, res)...)
		case OracleTardiness:
			out.Violations = append(out.Violations, oracleTardiness(c, res)...)
		case OracleWorkCons:
			out.Violations = append(out.Violations, oracleWorkCons(c, res, s)...)
		case OracleQueue:
			out.Violations = append(out.Violations, oracleQueue(c)...)
		}
	}
	if custom {
		return out
	}
	for _, o := range DiffOracles() {
		if !want[o] {
			continue
		}
		switch o {
		case OracleCache:
			out.Violations = append(out.Violations, diffCache(c)...)
		case OracleLive:
			out.Violations = append(out.Violations, diffLive(c, res)...)
		case OracleJournal:
			out.Violations = append(out.Violations, diffJournal(c, res)...)
		case OracleDelta:
			out.Violations = append(out.Violations, diffDelta(c, res)...)
		case OracleDegrade:
			out.Violations = append(out.Violations, diffDegrade(c, res)...)
		}
	}
	return out
}

// sortedGroupIDs returns the result's group names in sorted order.
func sortedGroupIDs(res *sim.Result) []string {
	out := make([]string, 0, len(res.Groups))
	for g := range res.Groups {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
