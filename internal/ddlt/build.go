package ddlt

import (
	"fmt"
	"slices"
	"strconv"

	"echelonflow/internal/core"
	"echelonflow/internal/dag"
	"echelonflow/internal/unit"
)

// Workload is a compiled training job (or a merge of several): the
// dependency graph plus the arrangement function of every EchelonFlow group
// appearing on its Comm nodes — exactly what the simulator consumes and what
// the framework would report to the EchelonFlow Agent (§5).
type Workload struct {
	Graph        *dag.Graph
	Arrangements map[string]core.Arrangement
	// Hosts lists every worker the workload computes or communicates on.
	Hosts []string
	// Sinks are the node IDs that complete the workload (iteration
	// barriers of the last iteration); useful when composing jobs.
	Sinks []string
}

// Merge combines several jobs' workloads onto one shared fabric. Node IDs
// must be globally unique (compilers prefix them with the job name).
func Merge(ws ...*Workload) (*Workload, error) {
	out := &Workload{Graph: dag.New(), Arrangements: make(map[string]core.Arrangement)}
	seenHost := make(map[string]bool)
	for _, w := range ws {
		if err := out.Graph.Merge(w.Graph); err != nil {
			return nil, err
		}
		for k, v := range w.Arrangements {
			if _, dup := out.Arrangements[k]; dup {
				return nil, fmt.Errorf("ddlt: duplicate group %q across merged workloads", k)
			}
			out.Arrangements[k] = v
		}
		for _, h := range w.Hosts {
			if !seenHost[h] {
				seenHost[h] = true
				out.Hosts = append(out.Hosts, h)
			}
		}
		out.Sinks = append(out.Sinks, w.Sinks...)
	}
	return out, nil
}

// builder accumulates a workload with per-host sequence counters, so
// compilers emit Compute nodes in intended execution order.
type builder struct {
	w   *Workload
	job string
	seq []int // next Seq per host, parallel to w.Hosts
	buf []byte
	// block is the unused tail of the block the next node comes from.
	block []dag.Node
}

func newBuilder(job string) *builder {
	return &builder{
		w:   &Workload{Graph: dag.New(), Arrangements: make(map[string]core.Arrangement)},
		job: job,
	}
}

// id names a node or group: the job name, a slash, then format with each
// %d replaced by the next argument, as fmt would print it.
func (b *builder) id(format string, args ...int) string {
	buf := append(append(b.buf[:0], b.job...), '/')
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) && format[i+1] == 'd' {
			buf = strconv.AppendInt(buf, int64(args[0]), 10)
			args = args[1:]
			i++
			continue
		}
		buf = append(buf, format[i])
	}
	b.buf = buf
	return string(buf)
}

// node returns a zero Node from the builder's current block, starting a
// block twice the size of the last one (at most 256 nodes) when it runs out.
func (b *builder) node() *dag.Node {
	if len(b.block) == 0 {
		b.block = make([]dag.Node, min(max(2*cap(b.block), 16), 256))
	}
	n := &b.block[0]
	b.block = b.block[1:]
	return n
}

// compute emits a Compute node on host with the next sequence number.
func (b *builder) compute(id, host string, dur unit.Time, deps ...string) (string, error) {
	h := b.noteHost(host)
	n := b.node()
	*n = dag.Node{ID: id, Kind: dag.Compute, Host: host, Duration: dur, Seq: b.seq[h]}
	b.seq[h]++
	if err := b.w.Graph.Add(n); err != nil {
		return "", err
	}
	for _, d := range deps {
		if err := b.w.Graph.Depend(d, id); err != nil {
			return "", err
		}
	}
	return id, nil
}

// group registers an arrangement for a group name.
func (b *builder) group(name string, arr core.Arrangement) string {
	b.w.Arrangements[name] = arr
	return name
}

// noteHost returns h's position in the workload's hosts, adding it if new.
func (b *builder) noteHost(h string) int {
	for i, x := range b.w.Hosts {
		if x == h {
			return i
		}
	}
	b.w.Hosts = append(b.w.Hosts, h)
	b.seq = append(b.seq, 0)
	return len(b.w.Hosts) - 1
}

// noteHosts records flow endpoints discovered outside compute().
func (b *builder) noteHosts(hs ...string) {
	b.w.Hosts = slices.Grow(b.w.Hosts, len(hs))
	b.seq = slices.Grow(b.seq, len(hs))
	for _, h := range hs {
		b.noteHost(h)
	}
}

// finish validates the result and stamps the sinks.
func (b *builder) finish(sinks []string) (*Workload, error) {
	b.w.Sinks = sinks
	if err := b.w.Graph.Validate(); err != nil {
		return nil, err
	}
	for _, n := range b.w.Graph.Nodes() {
		if _, ok := b.w.Arrangements[n.Group]; n.Kind == dag.Comm && n.Group != "" && !ok {
			return nil, fmt.Errorf("ddlt: group %q has no arrangement", n.Group)
		}
	}
	return b.w, nil
}

// validateJobCommon checks the fields every paradigm shares.
func validateJobCommon(name string, m Model, workers []string, iterations int) error {
	if name == "" {
		return fmt.Errorf("ddlt: job must have a name")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if len(workers) < 2 {
		return fmt.Errorf("ddlt: job %q needs >=2 workers", name)
	}
	for i, w := range workers {
		if w == "" {
			return fmt.Errorf("ddlt: job %q has an empty worker name", name)
		}
		if slices.Contains(workers[:i], w) {
			return fmt.Errorf("ddlt: job %q has duplicate worker %q", name, w)
		}
	}
	if iterations < 1 {
		return fmt.Errorf("ddlt: job %q needs >=1 iteration", name)
	}
	return nil
}
