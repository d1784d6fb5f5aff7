package ddlt

import (
	"fmt"

	"echelonflow/internal/collective"
	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// FSDP is fully-sharded data parallelism (ZeRO-3, Fig. 3): parameters are
// sharded across workers; before each layer's forward and backward compute
// every worker all-gathers that layer's shard, discarding it afterwards;
// after each layer's backward a reduce-scatter dispatches gradient shards.
//
// Per §4 Case III, the flows of each all-gather form a Coflow, and the
// sequence of all-gather Coflows along the iteration forms one EchelonFlow
// with the Eq. 7 staggered-Coflow arrangement: stage i is the i-th
// all-gather (forward layers 0..n−1, then backward layers n−1..0), with
// deadline gaps equal to the profiled per-layer forward/backward times. The
// reduce-scatter flows of each layer are a separate Coflow, equivalent to
// DP gradient synchronization.
type FSDP struct {
	Name    string
	Model   Model
	Workers []string
	// PrefetchDepth bounds how far the all-gather chain may run ahead of
	// computation (the framework's prefetch limit, constrained by GPU
	// memory). Network op k may start once compute unit k−1−depth has
	// finished. 0 means depth 1.
	PrefetchDepth int
	Iterations    int
}

// fsdpGaps derives the Eq. 7 deadline gaps from the model: forward stages
// are spaced by the preceding layer's forward time, backward stages by the
// corresponding layers' backward times. For a uniform model this is exactly
// Eq. 7 (n−1 gaps of T_fwd followed by n gaps of T_bwd).
func fsdpGaps(m Model) []unit.Time {
	n := len(m.Layers)
	gaps := make([]unit.Time, 0, 2*n-1)
	for i := 1; i <= n-1; i++ {
		gaps = append(gaps, m.Layers[i-1].Fwd)
	}
	for j := 0; j < n; j++ {
		gaps = append(gaps, m.Layers[n-1-j].Bwd)
	}
	return gaps
}

// Build compiles the job into a workload.
func (j FSDP) Build() (*Workload, error) {
	if err := validateJobCommon(j.Name, j.Model, j.Workers, j.Iterations); err != nil {
		return nil, err
	}
	depth := j.PrefetchDepth
	if depth == 0 {
		depth = 1
	}
	if depth < 0 {
		return nil, fmt.Errorf("ddlt: job %q has negative PrefetchDepth", j.Name)
	}
	b := newBuilder(j.Name)
	b.noteHosts(j.Workers...)
	n := len(j.Model.Layers)

	W := len(j.Workers)
	// Per network op k: its entry and exit flows; per compute unit k and
	// worker i: the compute's ID at k*W+i. Reused by every iteration.
	agLast, agStep0 := make([][]string, 2*n), make([][]string, 2*n)
	computes := make([]string, 2*n*W)
	var barrier []string
	for it := 0; it < j.Iterations; it++ {
		agGroup := b.group(b.id("it%d/ag", it), core.Staged{Gaps: fsdpGaps(j.Model)})

		// The network chain: AG(0..n−1) then AG'(n−1..0); op k serves
		// compute unit k. Stage index in the EchelonFlow equals k.
		layerOf := func(k int) int {
			if k < n {
				return k
			}
			return 2*n - 1 - k
		}
		var prevLast []string // previous network op's exit flows
		for k := 0; k < 2*n; k++ {
			var prefix string
			if k < n {
				prefix = b.id("it%d/ag/l%d", it, k)
			} else {
				prefix = b.id("it%d/agb/l%d", it, layerOf(k))
			}
			op, err := collective.RingAllGather(b.w.Graph, prefix, j.Workers,
				j.Model.Layers[layerOf(k)].Params, agGroup, k, nil)
			if err != nil {
				return nil, err
			}
			// Chain after the previous all-gather. The prefetch gates onto
			// compute nodes are wired below, once those nodes exist.
			deps := prevLast
			if k == 0 {
				deps = barrier
			}
			for _, entry := range op.Step0 {
				for _, d := range deps {
					if err := b.w.Graph.Depend(d, entry); err != nil {
						return nil, err
					}
				}
			}
			prevLast = op.Last
			agLast[k] = op.Last
			agStep0[k] = op.Step0
		}

		// Computes: F(0..n−1) then B(n−1..0), F(l) after AG(l) and B(l)
		// after AG'(l); serial per worker via Seq. Reduce-scatter after
		// each backward layer.
		barrier = nil
		for k := 0; k < 2*n; k++ {
			l := layerOf(k)
			layer := j.Model.Layers[l]
			dur := layer.Fwd
			if k >= n {
				dur = layer.Bwd
			}
			ids := computes[k*W : (k+1)*W]
			for i, w := range j.Workers {
				var id string
				if k < n {
					id = b.id("it%d/fw/l%dw%d", it, l, i)
				} else {
					id = b.id("it%d/bw/l%dw%d", it, l, i)
				}
				if _, err := b.compute(id, w, dur, agLast[k]...); err != nil {
					return nil, err
				}
				ids[i] = id
			}
			if k >= n {
				group := b.group(b.id("it%d/rs%d", it, l), core.Coflow{})
				rs, err := collective.RingReduceScatter(b.w.Graph, b.id("it%d/rs/l%d", it, l),
					j.Workers, layer.Params, group, 0, nil)
				if err != nil {
					return nil, err
				}
				for i, entry := range rs.Step0 {
					if err := b.w.Graph.Depend(ids[i], entry); err != nil {
						return nil, err
					}
				}
				barrier = append(barrier, rs.Last...)
			}
		}

		// Bounded prefetch: the k-th gather may start only once each worker
		// has finished compute unit k−1−depth.
		for k := 0; k < 2*n; k++ {
			gate := k - 1 - depth
			if gate < 0 {
				continue
			}
			for i, entry := range agStep0[k] {
				if err := b.w.Graph.Depend(computes[gate*W+i], entry); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.finish(barrier)
}
