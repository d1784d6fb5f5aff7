// Package queue is the coordinator's online job-arrival front end: jobs
// (wire.JobSpec, any of the six ddlt paradigms) arrive over time, a
// pluggable placement policy binds their workers to fabric hosts, and an
// admission layer orders and gates them against a concurrency/bandwidth
// budget using predicted iteration times — the prediction-assisted online
// scheduling setting of arXiv:2501.05563 layered over the paper's echelon
// scheduler. The queue itself is clockless and deterministic: callers pass
// explicit times, so the coordinator can journal its decisions and replay
// them bit-for-bit.
package queue

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/ddlt"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// Job is one queued (or admitted) submission.
type Job struct {
	Spec    wire.JobSpec
	Owner   string // submitting session's agent name
	Arrival unit.Time
	Seq     int // submission order, the FIFO key

	// Est is the per-iteration time the admission estimator resolved at
	// submit; EstStable records whether it came from a stable profile or a
	// declared-duration fallback. Bytes is the job's total comm volume and
	// Demand its predicted bandwidth appetite (Bytes over the estimated
	// run), charged against the queue's bandwidth budget while admitted.
	Est       unit.Time
	EstStable bool
	Bytes     unit.Bytes
	Demand    unit.Rate

	// plan is the spec compiled at submit, held until admission instantiates
	// it. A job restored pending from a snapshot has none.
	plan *Plan
}

// Admitted is a job bound to hosts.
type Admitted struct {
	Job        *Job
	Hosts      []string // placement, in binding order (ps: last host is the server)
	AdmittedAt unit.Time
}

// Groups instantiates the job's plan on its placement with the job's weight,
// and releases the plan: an admitted job keeps only the groups it registers.
// A job with no plan (restored pending from a snapshot) is compiled here.
// The plan's groups are already validated and stage-sorted: instantiating
// them calls no core.New.
func (a *Admitted) Groups() ([]*core.EchelonFlow, error) {
	p := a.Job.plan
	a.Job.plan = nil
	if p == nil {
		var err error
		if p, err = Compile(a.Job.Spec); err != nil {
			return nil, err
		}
	}
	return p.Groups(a.Hosts, a.Job.Spec.Weight)
}

// HostsNeeded reports how many distinct hosts a placement must supply for
// the spec: its workers, plus one for the "ps" paradigm's server.
func HostsNeeded(spec wire.JobSpec) int {
	if spec.Paradigm == "ps" {
		return spec.Workers + 1
	}
	return spec.Workers
}

// builds counts Build calls: the test that gates "a job is compiled once"
// reads it.
var builds atomic.Int64

// Build compiles a job spec onto bound hosts (len(hosts) == HostsNeeded).
// The compilation is deterministic in (spec, hosts), so a submitter that
// knows its admission placement reconstructs the exact node and group IDs
// the coordinator registered — the loadgen drives flow events this way.
func Build(spec wire.JobSpec, hosts []string) (*ddlt.Workload, error) {
	builds.Add(1)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(hosts) != HostsNeeded(spec) {
		return nil, fmt.Errorf("queue: job %q needs %d hosts, placement bound %d",
			spec.ID, HostsNeeded(spec), len(hosts))
	}
	workers := hosts
	ps := ""
	if spec.Paradigm == "ps" {
		workers, ps = hosts[:spec.Workers], hosts[spec.Workers]
	}
	m := ddlt.Uniform(spec.ID, spec.Layers, spec.Params, spec.Acts, spec.Fwd, spec.Bwd)
	switch spec.Paradigm {
	case "dp":
		return ddlt.DPAllReduce{Name: spec.ID, Model: m, Workers: workers,
			BucketCount: spec.Buckets, Iterations: spec.Iterations}.Build()
	case "ps":
		return ddlt.DPParameterServer{Name: spec.ID, Model: m, Workers: workers, PS: ps,
			BucketCount: spec.Buckets, AggTime: spec.AggTime, Iterations: spec.Iterations}.Build()
	case "pp":
		return ddlt.PipelineGPipe{Name: spec.ID, Model: m, Workers: workers,
			MicroBatches: spec.Micro, UpdateTime: spec.UpdateTime, Iterations: spec.Iterations}.Build()
	case "1f1b":
		return ddlt.Pipeline1F1B{Name: spec.ID, Model: m, Workers: workers,
			MicroBatches: spec.Micro, UpdateTime: spec.UpdateTime, Iterations: spec.Iterations}.Build()
	case "tp":
		return ddlt.TensorParallel{Name: spec.ID, Model: m, Workers: workers,
			Iterations: spec.Iterations}.Build()
	case "fsdp":
		return ddlt.FSDP{Name: spec.ID, Model: m, Workers: workers,
			PrefetchDepth: spec.Prefetch, Iterations: spec.Iterations}.Build()
	default:
		return nil, fmt.Errorf("queue: job %q has unknown paradigm %q", spec.ID, spec.Paradigm)
	}
}

// slotHosts names a placement's slots, "q0", "q1", ...: the hosts a Plan is
// compiled on. The names are cut from one string.
func slotHosts(n int) []string {
	var scratch [128]byte
	buf := scratch[:0]
	for i := 0; i < n; i++ {
		buf = strconv.AppendInt(append(buf, 'q'), int64(i), 10)
	}
	all := string(buf)
	out := make([]string, n)
	for i := range out {
		end := len(all)
		if k := strings.IndexByte(all[1:], 'q'); k >= 0 {
			end = k + 1
		}
		out[i], all = all[:end], all[end:]
	}
	return out
}

// Plan is a job spec compiled once, on slot hosts: everything admission
// registers, with each flow's endpoints kept as slot indices. Node and group
// IDs carry worker indices, never host names, so one plan serves every
// placement of the spec. Its groups are validated and their flows sorted by
// stage, as core.New would: instantiating them is copying.
type Plan struct {
	spec   wire.JobSpec // compiled from
	slots  int          // HostsNeeded(spec)
	bytes  unit.Bytes
	groups []planGroup
	flows  []planFlow // every group's flows, group after group
}

type planGroup struct {
	id    string
	arr   core.Arrangement
	flows []planFlow // the group's window of Plan.flows
}

type planFlow struct {
	id       string
	src, dst int32 // slot indices
	size     unit.Bytes
	stage    int
}

// Compile builds a spec on slot hosts and lowers the graph into a Plan in
// one walk: comm nodes grouped as Groups groups them, each group checked as
// core.New checks it and its flows stable-sorted by stage, endpoints kept as
// slot indices. It is pure, safe for concurrent use and safe on any spec;
// an error is the spec's (invalid shape, bad paradigm, pipeline with fewer
// layers than workers, ...).
func Compile(spec wire.JobSpec) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hosts := slotHosts(HostsNeeded(spec))
	w, err := Build(spec, hosts)
	if err != nil {
		return nil, err
	}
	p := &Plan{spec: spec, slots: len(hosts)}
	at := make(map[string]int32)
	// flows[i] belongs to group groupOf[i]; both in node order.
	flows := make([]planFlow, 0, w.Graph.Len())
	groupOf := make([]int32, 0, w.Graph.Len())
	for _, n := range w.Graph.Nodes() {
		if n.Kind != dag.Comm {
			continue
		}
		p.bytes += n.Size // in node order: snapshots record Job.Bytes to the bit
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		k, ok := at[gid]
		if !ok {
			k = int32(len(p.groups))
			at[gid] = k
			p.groups = append(p.groups, planGroup{id: gid, arr: w.Arrangements[gid]})
		}
		if n.Stage < 0 {
			return nil, fmt.Errorf("queue: group %q: flow %q has negative stage", gid, n.ID)
		}
		src, dst := slices.Index(hosts, n.Src), slices.Index(hosts, n.Dst)
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("queue: group %q: flow %q is not between slot hosts", gid, n.ID)
		}
		flows = append(flows, planFlow{id: n.ID, src: int32(src), dst: int32(dst), size: n.Size, stage: n.Stage})
		groupOf = append(groupOf, k)
	}
	// Lay each group's flows out contiguously in one array, in node order,
	// then sort each group by stage.
	next := make([]int, len(p.groups))
	for _, k := range groupOf {
		next[k]++
	}
	off := 0
	for k, n := range next {
		next[k] = off
		off += n
	}
	p.flows = make([]planFlow, len(flows))
	for i, f := range flows {
		p.flows[next[groupOf[i]]] = f
		next[groupOf[i]]++
	}
	off = 0
	for k := range p.groups {
		g := &p.groups[k]
		g.flows = p.flows[off:next[k]:next[k]]
		off = next[k]
		if g.arr == nil {
			if len(g.flows) != 1 || g.id != "flow:"+g.flows[0].id {
				return nil, fmt.Errorf("queue: group %q has no arrangement", g.id)
			}
			g.arr = core.Coflow{}
		}
		slices.SortStableFunc(g.flows, func(a, b planFlow) int { return cmp.Compare(a.stage, b.stage) })
	}
	return p, nil
}

// GroupIDs names the groups the plan registers, in registration order.
func (p *Plan) GroupIDs() []string {
	out := make([]string, len(p.groups))
	for i, g := range p.groups {
		out[i] = g.id
	}
	return out
}

// Groups instantiates the plan on a placement (len(hosts) == HostsNeeded,
// distinct, non-empty: what Build requires of one): the groups
// Groups(Build(spec, hosts), weight) returns, without compiling. Compile
// validated and sorted them, so this only copies: distinct slots on distinct
// hosts keep every flow's endpoints distinct.
func (p *Plan) Groups(hosts []string, weight float64) ([]*core.EchelonFlow, error) {
	if len(hosts) != p.slots {
		return nil, fmt.Errorf("queue: job %q needs %d hosts, placement bound %d", p.spec.ID, p.slots, len(hosts))
	}
	for i, h := range hosts {
		if h == "" {
			return nil, fmt.Errorf("queue: job %q has an empty host in its placement", p.spec.ID)
		}
		for _, o := range hosts[:i] {
			if o == h {
				return nil, fmt.Errorf("queue: job %q has duplicate host %q in its placement", p.spec.ID, h)
			}
		}
	}
	flows, ptrs := make([]core.Flow, len(p.flows)), make([]*core.Flow, len(p.flows))
	egs := make([]core.EchelonFlow, len(p.groups))
	out := make([]*core.EchelonFlow, len(p.groups))
	for k, g := range p.groups {
		members := ptrs[:len(g.flows):len(g.flows)]
		ptrs = ptrs[len(g.flows):]
		for i, f := range g.flows {
			flows[i] = core.Flow{ID: f.id, Src: hosts[f.src], Dst: hosts[f.dst], Size: f.size, Stage: f.stage}
			members[i] = &flows[i]
		}
		flows = flows[len(g.flows):]
		egs[k] = core.EchelonFlow{ID: g.id, Flows: members, Arrangement: g.arr, Weight: weight}
		out[k] = &egs[k]
	}
	return out, nil
}

// Groups lowers a compiled workload into registrable EchelonFlows, mirroring
// the simulator's group construction: comm nodes grouped by their Group
// name under the workload's arrangement, ungrouped nodes becoming singleton
// Coflows named "flow:<id>". Weight (0 means unweighted) applies to every
// group — it is the job's priority in the Eq. 4 objective. Compile lowers
// the same way without core.New; this is the reference TestPlanMatchesBuild
// holds it to.
func Groups(w *ddlt.Workload, weight float64) ([]*core.EchelonFlow, error) {
	flowsByGroup := make(map[string][]*core.Flow)
	var order []string
	for _, n := range w.Graph.Nodes() {
		if n.Kind != dag.Comm {
			continue
		}
		gid := n.Group
		if gid == "" {
			gid = "flow:" + n.ID
		}
		if _, seen := flowsByGroup[gid]; !seen {
			order = append(order, gid)
		}
		flowsByGroup[gid] = append(flowsByGroup[gid], &core.Flow{
			ID: n.ID, Src: n.Src, Dst: n.Dst, Size: n.Size, Stage: n.Stage,
		})
	}
	out := make([]*core.EchelonFlow, 0, len(order))
	for _, gid := range order {
		flows := flowsByGroup[gid]
		var arr core.Arrangement
		if a, ok := w.Arrangements[gid]; ok {
			arr = a
		} else if len(flows) == 1 && gid == "flow:"+flows[0].ID {
			arr = core.Coflow{}
		} else {
			return nil, fmt.Errorf("queue: group %q has no arrangement", gid)
		}
		g, err := core.New(gid, arr, flows...)
		if err != nil {
			return nil, err
		}
		g.Weight = weight
		out = append(out, g)
	}
	return out, nil
}
