// Package collective decomposes the communication primitives of DDLT
// frameworks — ring all-reduce (reduce-scatter + all-gather), parameter-
// server push/pull, and all-to-all — into point-to-point flows on the
// computation graph, with the step dependencies a real implementation
// (NCCL/Gloo ring algorithms) imposes.
//
// For an m-worker ring over a buffer of V bytes, the buffer splits into m
// chunks of V/m; reduce-scatter and all-gather each take m−1 steps (§2.1),
// and in every step each worker forwards one chunk to its ring successor,
// which it may only do after receiving the previous step's chunk from its
// ring predecessor.
package collective

import (
	"fmt"
	"slices"
	"strconv"

	"echelonflow/internal/dag"
	"echelonflow/internal/unit"
)

// Op describes the flows a collective emitted: Step0 holds the entry flows
// indexed by worker (callers hang per-worker dependencies off these — e.g.
// worker i's backward compute gates only worker i's first send), Last holds
// the final-step flows whose joint completion is the collective's barrier,
// and All lists every flow in emission order. Step0 and Last share All's
// storage: callers read them and may append to them, but never write their
// elements.
type Op struct {
	All   []string
	Step0 []string
	Last  []string
}

// validateRing checks common ring-collective arguments.
func validateRing(g *dag.Graph, workers []string, size unit.Bytes) error {
	if g == nil {
		return fmt.Errorf("collective: nil graph")
	}
	if len(workers) < 2 {
		return fmt.Errorf("collective: ring needs >=2 workers, got %d", len(workers))
	}
	for i, w := range workers {
		if w == "" {
			return fmt.Errorf("collective: empty worker name")
		}
		if slices.Contains(workers[:i], w) {
			return fmt.Errorf("collective: duplicate worker %q", w)
		}
	}
	if size < 0 {
		return fmt.Errorf("collective: negative size %v", size)
	}
	return nil
}

// ringPhase emits len(ids)/len(workers) ring steps named prefix/s<step>w<i>
// into ids, step-major: in each step every worker sends a chunk to its
// successor, depending on the chunk it received in the previous step (and
// on deps for step 0). The returned Op's slices share ids.
func ringPhase(g *dag.Graph, ids []string, prefix string, workers []string, chunk unit.Bytes, group string, stage int, deps []string) (Op, error) {
	m := len(workers)
	steps := len(ids) / m
	nodes := make([]dag.Node, len(ids))
	var scratch [64]byte
	buf := append(append(scratch[:0], prefix...), "/s"...)
	stem := len(buf)
	for s := 0; s < steps; s++ {
		for i := 0; i < m; i++ {
			buf = strconv.AppendInt(buf[:stem], int64(s), 10)
			buf = strconv.AppendInt(append(buf, 'w'), int64(i), 10)
			k := s*m + i
			id := string(buf)
			ids[k] = id
			nodes[k] = dag.Node{
				ID: id, Kind: dag.Comm,
				Src: workers[i], Dst: workers[(i+1)%m],
				Size: chunk, Group: group, Stage: stage,
			}
			if err := g.Add(&nodes[k]); err != nil {
				return Op{}, err
			}
			if s == 0 {
				for _, d := range deps {
					if err := g.Depend(d, id); err != nil {
						return Op{}, err
					}
				}
				continue
			}
			// Worker i forwards in step s what it received in step s-1
			// from its predecessor (i-1 mod m).
			if err := g.Depend(ids[(s-1)*m+(i-1+m)%m], id); err != nil {
				return Op{}, err
			}
		}
	}
	op := Op{All: ids}
	if steps > 0 {
		op.Step0 = ids[:m:m]
		op.Last = ids[len(ids)-m:]
	}
	return op, nil
}

// RingReduceScatter emits the m−1 reduce-scatter steps for a size-byte
// buffer over the workers. Flows carry the given group and stage; step-0
// flows depend on deps.
func RingReduceScatter(g *dag.Graph, prefix string, workers []string, size unit.Bytes, group string, stage int, deps []string) (Op, error) {
	if err := validateRing(g, workers, size); err != nil {
		return Op{}, err
	}
	m := len(workers)
	return ringPhase(g, make([]string, (m-1)*m), prefix+"/rs", workers, size/unit.Bytes(m), group, stage, deps)
}

// RingAllGather emits the m−1 all-gather steps, mirroring RingReduceScatter.
func RingAllGather(g *dag.Graph, prefix string, workers []string, size unit.Bytes, group string, stage int, deps []string) (Op, error) {
	if err := validateRing(g, workers, size); err != nil {
		return Op{}, err
	}
	m := len(workers)
	return ringPhase(g, make([]string, (m-1)*m), prefix+"/ag", workers, size/unit.Bytes(m), group, stage, deps)
}

// RingAllReduce emits a full all-reduce: reduce-scatter followed by
// all-gather, 2(m−1) steps in total (§2.1). The returned Op's Step0 are the
// reduce-scatter entry flows and Last the all-gather exit flows.
func RingAllReduce(g *dag.Graph, prefix string, workers []string, size unit.Bytes, group string, stage int, deps []string) (Op, error) {
	if err := validateRing(g, workers, size); err != nil {
		return Op{}, err
	}
	m := len(workers)
	chunk := size / unit.Bytes(m)
	all := make([]string, 2*(m-1)*m)
	half := len(all) / 2
	rs, err := ringPhase(g, all[:half:half], prefix+"/rs", workers, chunk, group, stage, deps)
	if err != nil {
		return Op{}, err
	}
	ag, err := ringPhase(g, all[half:], prefix+"/ag", workers, chunk, group, stage, rs.Last)
	if err != nil {
		return Op{}, err
	}
	return Op{All: all, Step0: rs.Step0, Last: ag.Last}, nil
}

// PSPush emits one gradient-push flow per worker to the parameter server
// (Fig. 4b, workers→PS).
func PSPush(g *dag.Graph, prefix string, workers []string, ps string, perWorker unit.Bytes, group string, stage int, deps []string) (Op, error) {
	return psFanFlows(g, prefix+"/push", workers, ps, perWorker, group, stage, deps, true)
}

// PSPull emits one model-pull flow per worker from the parameter server
// (Fig. 4b, PS→workers).
func PSPull(g *dag.Graph, prefix string, workers []string, ps string, perWorker unit.Bytes, group string, stage int, deps []string) (Op, error) {
	return psFanFlows(g, prefix+"/pull", workers, ps, perWorker, group, stage, deps, false)
}

func psFanFlows(g *dag.Graph, prefix string, workers []string, ps string, perWorker unit.Bytes, group string, stage int, deps []string, toPS bool) (Op, error) {
	if g == nil {
		return Op{}, fmt.Errorf("collective: nil graph")
	}
	if ps == "" {
		return Op{}, fmt.Errorf("collective: empty PS host")
	}
	if len(workers) == 0 {
		return Op{}, fmt.Errorf("collective: PS fan needs >=1 worker")
	}
	if perWorker < 0 {
		return Op{}, fmt.Errorf("collective: negative size %v", perWorker)
	}
	ids := make([]string, len(workers))
	nodes := make([]dag.Node, len(workers))
	var scratch [64]byte
	buf := append(append(scratch[:0], prefix...), "/w"...)
	stem := len(buf)
	for i, w := range workers {
		if w == ps {
			return Op{}, fmt.Errorf("collective: worker %q is the PS host", w)
		}
		buf = strconv.AppendInt(buf[:stem], int64(i), 10)
		id := string(buf)
		src, dst := w, ps
		if !toPS {
			src, dst = ps, w
		}
		nodes[i] = dag.Node{
			ID: id, Kind: dag.Comm, Src: src, Dst: dst,
			Size: perWorker, Group: group, Stage: stage,
		}
		if err := g.Add(&nodes[i]); err != nil {
			return Op{}, err
		}
		for _, d := range deps {
			if err := g.Depend(d, id); err != nil {
				return Op{}, err
			}
		}
		ids[i] = id
	}
	return Op{All: ids, Step0: ids, Last: ids}, nil
}

// AllToAll emits a full-mesh exchange: every worker sends perPair bytes to
// every other worker. Step0 groups flows by source worker, so Step0 has
// m(m−1) entries in source-major order (it equals All and Last: every flow
// is both an entry and an exit of the exchange).
func AllToAll(g *dag.Graph, prefix string, workers []string, perPair unit.Bytes, group string, stage int, deps []string) (Op, error) {
	if err := validateRing(g, workers, perPair); err != nil {
		return Op{}, err
	}
	m := len(workers)
	ids := make([]string, 0, m*(m-1))
	nodes := make([]dag.Node, m*(m-1))
	var scratch [64]byte
	buf := append(append(scratch[:0], prefix...), "/a2a"...)
	stem := len(buf)
	for i, src := range workers {
		for j, dst := range workers {
			if i == j {
				continue
			}
			buf = strconv.AppendInt(buf[:stem], int64(i), 10)
			buf = strconv.AppendInt(append(buf, '-'), int64(j), 10)
			id := string(buf)
			n := &nodes[len(ids)]
			*n = dag.Node{
				ID: id, Kind: dag.Comm, Src: src, Dst: dst,
				Size: perPair, Group: group, Stage: stage,
			}
			if err := g.Add(n); err != nil {
				return Op{}, err
			}
			for _, d := range deps {
				if err := g.Depend(d, id); err != nil {
					return Op{}, err
				}
			}
			ids = append(ids, id)
		}
	}
	return Op{All: ids, Step0: ids, Last: ids}, nil
}

// P2P emits a single point-to-point flow (pipeline-parallel activations and
// gradients).
func P2P(g *dag.Graph, id, src, dst string, size unit.Bytes, group string, stage int, deps []string) (string, error) {
	if g == nil {
		return "", fmt.Errorf("collective: nil graph")
	}
	if err := g.Add(&dag.Node{
		ID: id, Kind: dag.Comm, Src: src, Dst: dst,
		Size: size, Group: group, Stage: stage,
	}); err != nil {
		return "", err
	}
	for _, d := range deps {
		if err := g.Depend(d, id); err != nil {
			return "", err
		}
	}
	return id, nil
}
