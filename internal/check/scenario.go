// Package check is the differential testing harness: a seeded scenario
// generator, a library of invariant and differential oracles, and a
// shrinker that minimizes failing scenarios to small reproducers.
//
// A Scenario is a self-contained JSON description of one randomized test
// case: a fabric (hosts with NIC capacities), DDLT training jobs compiled
// through internal/ddlt, optional ad-hoc DAG nodes with explicit
// arrangements, an optional fault schedule (internal/faults), and the
// rescheduling cadence. Everything the harness does — simulation, live
// coordinator replay, journal crash/restore — derives deterministically
// from the scenario, so a failure reproduces from its JSON (or just its
// seed) alone. See DESIGN.md "Reproducing a failure".
package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/fabric"
	"echelonflow/internal/faults"
	"echelonflow/internal/sched"
	"echelonflow/internal/sim"
	"echelonflow/internal/unit"
)

// HostSpec is one fabric host and its NIC capacities.
type HostSpec struct {
	Name    string    `json:"name"`
	Egress  unit.Rate `json:"egress"`
	Ingress unit.Rate `json:"ingress"`
}

// ModelSpec is a uniform model shape for ddlt compilers.
type ModelSpec struct {
	Layers int        `json:"layers"`
	Params unit.Bytes `json:"params"` // per-layer parameter volume
	Acts   unit.Bytes `json:"acts"`   // per-layer activation volume
	Fwd    unit.Time  `json:"fwd"`    // per-layer forward compute time
	Bwd    unit.Time  `json:"bwd"`    // per-layer backward compute time
}

// JobSpec names a DDLT paradigm and its parameters. Paradigm is one of
// "dp" (AllReduce), "ps" (parameter server), "pp" (GPipe), "1f1b",
// "tp" (tensor parallel) or "fsdp".
type JobSpec struct {
	Name       string    `json:"name"`
	Paradigm   string    `json:"paradigm"`
	Model      ModelSpec `json:"model"`
	Workers    []string  `json:"workers"`
	PS         string    `json:"ps,omitempty"`       // ps only: the server host
	AggTime    unit.Time `json:"agg_time,omitempty"` // ps only: per-bucket aggregation
	Buckets    int       `json:"buckets,omitempty"`  // dp/ps: gradient buckets (0 = per layer)
	Micro      int       `json:"micro,omitempty"`    // pp/1f1b: micro-batches
	UpdateTime unit.Time `json:"update_time,omitempty"`
	Prefetch   int       `json:"prefetch,omitempty"` // fsdp: prefetch depth
	Iterations int       `json:"iterations"`
	// Weight scales every group of this job in the weighted Eq. 4
	// objective (0 means 1).
	Weight float64 `json:"weight,omitempty"`
	// Arrival delays the whole job: no node of it may start earlier (the
	// compiler shifts every node's NotBefore by it). It is also the job's
	// submission time in the queue-admission oracle's arrival trace.
	Arrival unit.Time `json:"arrival,omitempty"`
}

// NodeSpec is one ad-hoc DAG node: Kind "compute" or "comm".
type NodeSpec struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind"`
	Host      string     `json:"host,omitempty"`
	Duration  unit.Time  `json:"duration,omitempty"`
	Src       string     `json:"src,omitempty"`
	Dst       string     `json:"dst,omitempty"`
	Size      unit.Bytes `json:"size,omitempty"`
	Group     string     `json:"group,omitempty"`
	Stage     int        `json:"stage,omitempty"`
	Seq       int        `json:"seq,omitempty"`
	NotBefore unit.Time  `json:"not_before,omitempty"`
	Deps      []string   `json:"deps,omitempty"`
}

// GroupSpec binds an ad-hoc group name to a serialized arrangement.
type GroupSpec struct {
	Name        string    `json:"name"`
	Arrangement core.Spec `json:"arrangement"`
	Weight      float64   `json:"weight,omitempty"`
}

// Scenario is one self-contained test case.
type Scenario struct {
	// Seed records provenance: the generator seed this scenario was drawn
	// from (zero for hand-written or shrunk scenarios whose seed no longer
	// regenerates them).
	Seed  uint64     `json:"seed,omitempty"`
	Hosts []HostSpec `json:"hosts"`
	Jobs  []JobSpec  `json:"jobs,omitempty"`
	// Nodes and Groups describe an ad-hoc workload merged alongside the
	// jobs (the shrinker also lowers jobs into this form to drop
	// individual flows).
	Nodes  []NodeSpec       `json:"nodes,omitempty"`
	Groups []GroupSpec      `json:"groups,omitempty"`
	Faults *faults.Schedule `json:"faults,omitempty"`
	// Interval and IntervalOnly select the rescheduling cadence
	// (sim.Options semantics).
	Interval     unit.Time `json:"interval,omitempty"`
	IntervalOnly bool      `json:"interval_only,omitempty"`
}

// Parse decodes and validates a JSON scenario. Unknown fields are rejected
// so a mistyped repro fails loudly.
func Parse(data []byte) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("check: parse scenario: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// Marshal renders the scenario as indented JSON, the on-disk repro format.
func (sc *Scenario) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("check: marshal scenario: %w", err)
	}
	return append(data, '\n'), nil
}

// Clone deep-copies the scenario via its JSON form.
func (sc *Scenario) Clone() *Scenario {
	data, err := json.Marshal(sc)
	if err != nil {
		panic(fmt.Sprintf("check: clone: %v", err))
	}
	var out Scenario
	if err := json.Unmarshal(data, &out); err != nil {
		panic(fmt.Sprintf("check: clone: %v", err))
	}
	return &out
}

// Validate checks the scenario's shape without compiling it.
func (sc *Scenario) Validate() error {
	if len(sc.Hosts) == 0 {
		return fmt.Errorf("check: scenario has no hosts")
	}
	seen := make(map[string]bool, len(sc.Hosts))
	for _, h := range sc.Hosts {
		if h.Name == "" {
			return fmt.Errorf("check: host with empty name")
		}
		if seen[h.Name] {
			return fmt.Errorf("check: duplicate host %q", h.Name)
		}
		seen[h.Name] = true
		if h.Egress <= 0 || h.Ingress <= 0 {
			return fmt.Errorf("check: host %q needs positive capacities", h.Name)
		}
	}
	for _, j := range sc.Jobs {
		if j.Name == "" {
			return fmt.Errorf("check: job with empty name")
		}
		for _, w := range j.Workers {
			if !seen[w] {
				return fmt.Errorf("check: job %q worker %q not in hosts", j.Name, w)
			}
		}
		if j.PS != "" && !seen[j.PS] {
			return fmt.Errorf("check: job %q PS %q not in hosts", j.Name, j.PS)
		}
		if j.Arrival < 0 {
			return fmt.Errorf("check: job %q has negative arrival %v", j.Name, j.Arrival)
		}
	}
	for _, n := range sc.Nodes {
		switch n.Kind {
		case "compute":
			if !seen[n.Host] {
				return fmt.Errorf("check: compute %q host %q not in hosts", n.ID, n.Host)
			}
		case "comm":
			if !seen[n.Src] || !seen[n.Dst] {
				return fmt.Errorf("check: comm %q endpoints not in hosts", n.ID)
			}
		default:
			return fmt.Errorf("check: node %q has unknown kind %q", n.ID, n.Kind)
		}
	}
	if sc.Faults != nil {
		if err := sc.Faults.Validate(); err != nil {
			return err
		}
	}
	if sc.IntervalOnly && sc.Interval <= 0 {
		return fmt.Errorf("check: interval_only requires a positive interval")
	}
	return nil
}

// compiled is a scenario lowered to simulator inputs. The graph,
// arrangements and fault changes are immutable across runs; each run gets
// its own fabric via newNet (runs mutate capacities).
type compiled struct {
	sc      *Scenario
	graph   *dag.Graph
	arrs    map[string]core.Arrangement
	weights map[string]float64
	caps    []sim.CapacityChange
	dils    []sim.DilationChange
	// fabricFn builds each run's fabric from the scenario's host specs
	// (big-switch by default). Set from Config.Fabric by Run so every
	// simulation and oracle replay in one Run schedules against the same
	// backend.
	fabricFn func(hosts []HostSpec) fabric.Fabric
}

// buildJob compiles one JobSpec through its ddlt paradigm.
func buildJob(j JobSpec) (*ddlt.Workload, error) {
	m := ddlt.Uniform(j.Name, j.Model.Layers, j.Model.Params, j.Model.Acts, j.Model.Fwd, j.Model.Bwd)
	switch j.Paradigm {
	case "dp":
		return ddlt.DPAllReduce{Name: j.Name, Model: m, Workers: j.Workers,
			BucketCount: j.Buckets, Iterations: j.Iterations}.Build()
	case "ps":
		return ddlt.DPParameterServer{Name: j.Name, Model: m, Workers: j.Workers, PS: j.PS,
			BucketCount: j.Buckets, AggTime: j.AggTime, Iterations: j.Iterations}.Build()
	case "pp":
		return ddlt.PipelineGPipe{Name: j.Name, Model: m, Workers: j.Workers,
			MicroBatches: j.Micro, UpdateTime: j.UpdateTime, Iterations: j.Iterations}.Build()
	case "1f1b":
		return ddlt.Pipeline1F1B{Name: j.Name, Model: m, Workers: j.Workers,
			MicroBatches: j.Micro, UpdateTime: j.UpdateTime, Iterations: j.Iterations}.Build()
	case "tp":
		return ddlt.TensorParallel{Name: j.Name, Model: m, Workers: j.Workers,
			Iterations: j.Iterations}.Build()
	case "fsdp":
		return ddlt.FSDP{Name: j.Name, Model: m, Workers: j.Workers,
			PrefetchDepth: j.Prefetch, Iterations: j.Iterations}.Build()
	default:
		return nil, fmt.Errorf("check: job %q has unknown paradigm %q", j.Name, j.Paradigm)
	}
}

// adhocWorkload lowers the scenario's explicit nodes and groups.
func (sc *Scenario) adhocWorkload() (*ddlt.Workload, error) {
	w := &ddlt.Workload{Graph: dag.New(), Arrangements: make(map[string]core.Arrangement)}
	for _, g := range sc.Groups {
		arr, err := g.Arrangement.Build()
		if err != nil {
			return nil, fmt.Errorf("check: group %q: %w", g.Name, err)
		}
		w.Arrangements[g.Name] = arr
	}
	for _, n := range sc.Nodes {
		node := &dag.Node{
			ID: n.ID, Host: n.Host, Duration: n.Duration,
			Src: n.Src, Dst: n.Dst, Size: n.Size,
			Group: n.Group, Stage: n.Stage, Seq: n.Seq, NotBefore: n.NotBefore,
		}
		if n.Kind == "compute" {
			node.Kind = dag.Compute
		} else {
			node.Kind = dag.Comm
		}
		if err := w.Graph.Add(node); err != nil {
			return nil, fmt.Errorf("check: %w", err)
		}
		if n.Group != "" {
			if _, ok := w.Arrangements[n.Group]; !ok {
				return nil, fmt.Errorf("check: comm %q references undeclared group %q", n.ID, n.Group)
			}
		}
	}
	for _, n := range sc.Nodes {
		for _, d := range n.Deps {
			if err := w.Graph.Depend(d, n.ID); err != nil {
				return nil, fmt.Errorf("check: %w", err)
			}
		}
	}
	return w, nil
}

// compile lowers the scenario: jobs and ad-hoc nodes merge into one graph,
// per-group weights are resolved, and the fault schedule becomes capacity
// changes and dilations against the baseline fabric.
func (sc *Scenario) compile() (*compiled, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	var parts []*ddlt.Workload
	weights := make(map[string]float64)
	for _, j := range sc.Jobs {
		w, err := buildJob(j)
		if err != nil {
			return nil, err
		}
		// An arriving job's nodes may not start before it arrives; shifting
		// NotBefore here (before the merge) turns the static graph into an
		// arrival-timed trace the ordering oracle checks like any other gate.
		if j.Arrival > 0 {
			for _, n := range w.Graph.Nodes() {
				n.NotBefore += j.Arrival
			}
		}
		if j.Weight > 0 {
			for g := range w.Arrangements {
				weights[g] = j.Weight
			}
		}
		parts = append(parts, w)
	}
	if len(sc.Nodes) > 0 || len(sc.Groups) > 0 {
		w, err := sc.adhocWorkload()
		if err != nil {
			return nil, err
		}
		for _, g := range sc.Groups {
			if g.Weight > 0 {
				weights[g.Name] = g.Weight
			}
		}
		parts = append(parts, w)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("check: scenario has neither jobs nor nodes")
	}
	merged, err := ddlt.Merge(parts...)
	if err != nil {
		return nil, err
	}
	c := &compiled{sc: sc, graph: merged.Graph, arrs: merged.Arrangements, weights: weights}
	c.fabricFn = func(hosts []HostSpec) fabric.Fabric { return newNet(hosts) }
	if !sc.Faults.Empty() {
		caps, dils, err := faults.CompileSim(sc.Faults, c.newNet())
		if err != nil {
			return nil, err
		}
		c.caps, c.dils = caps, dils
	}
	return c, nil
}

// newNet builds a fresh baseline fabric for one run, via the configured
// backend builder (big-switch by default; Config.Fabric overrides it).
func (c *compiled) newNet() fabric.Fabric {
	if c.fabricFn == nil {
		return newNet(c.sc.Hosts)
	}
	return c.fabricFn(c.sc.Hosts)
}

func newNet(hosts []HostSpec) *fabric.Network {
	net := fabric.NewNetwork()
	for _, h := range hosts {
		if err := net.AddHost(h.Name, "", h.Egress, h.Ingress); err != nil {
			panic(fmt.Sprintf("check: %v", err)) // Validate guarantees this cannot happen
		}
	}
	return net
}

// simOptions assembles one run's simulator options around a fresh fabric.
func (c *compiled) simOptions(s sched.Scheduler) (sim.Options, fabric.Fabric) {
	net := c.newNet()
	return sim.Options{
		Graph:           c.graph,
		Net:             net,
		Scheduler:       s,
		Arrangements:    c.arrs,
		Weights:         c.weights,
		Interval:        c.sc.Interval,
		IntervalOnly:    c.sc.IntervalOnly,
		RecordRates:     true,
		CapacityChanges: c.caps,
		Dilations:       c.dils,
	}, net
}

// commNodes returns the scenario's comm nodes in graph order.
func (c *compiled) commNodes() []*dag.Node {
	var out []*dag.Node
	for _, n := range c.graph.Nodes() {
		if n.Kind == dag.Comm {
			out = append(out, n)
		}
	}
	return out
}

// groupIDs returns every group name a run will produce (including the
// synthetic "flow:<id>" singletons for ungrouped comm nodes), sorted.
func (c *compiled) groupIDs() []string {
	seen := make(map[string]bool)
	for _, n := range c.commNodes() {
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		seen[gid] = true
	}
	out := make([]string, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}
