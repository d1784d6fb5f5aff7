package ddlt

import (
	"fmt"

	"echelonflow/internal/collective"
	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// HybridTPPP is Megatron-style 2D parallelism: the model is pipelined
// across stages (GPipe order) and each stage is tensor-parallel across its
// worker group. Communication mixes every arrangement the paper catalogs:
// per-layer intra-stage all-reduces (Coflows, Eq. 5), and per-micro-batch
// rank-to-rank activation/gradient transfers between stages (pipeline
// EchelonFlows, Eq. 6) — a single job that exercises both sides of Table 1.
type HybridTPPP struct {
	Name  string
	Model Model
	// StageWorkers[s] lists pipeline stage s's tensor-parallel group. All
	// groups must have the same size (the TP degree), and stage-to-stage
	// transfers connect equal ranks.
	StageWorkers [][]string
	MicroBatches int
	Iterations   int
}

// Build compiles the job into a workload.
func (j HybridTPPP) Build() (*Workload, error) {
	if j.Name == "" {
		return nil, fmt.Errorf("ddlt: job must have a name")
	}
	if err := j.Model.Validate(); err != nil {
		return nil, err
	}
	S := len(j.StageWorkers)
	if S < 2 {
		return nil, fmt.Errorf("ddlt: job %q needs >=2 pipeline stages", j.Name)
	}
	k := len(j.StageWorkers[0])
	if k < 2 {
		return nil, fmt.Errorf("ddlt: job %q needs TP degree >=2", j.Name)
	}
	seen := map[string]bool{}
	for s, group := range j.StageWorkers {
		if len(group) != k {
			return nil, fmt.Errorf("ddlt: job %q stage %d has %d workers, want %d", j.Name, s, len(group), k)
		}
		for _, w := range group {
			if w == "" {
				return nil, fmt.Errorf("ddlt: job %q has an empty worker name", j.Name)
			}
			if seen[w] {
				return nil, fmt.Errorf("ddlt: job %q reuses worker %q across stages", j.Name, w)
			}
			seen[w] = true
		}
	}
	if j.MicroBatches < 1 {
		return nil, fmt.Errorf("ddlt: job %q needs >=1 micro-batch", j.Name)
	}
	if j.Iterations < 1 {
		return nil, fmt.Errorf("ddlt: job %q needs >=1 iteration", j.Name)
	}
	parts, err := j.Model.Partition(S)
	if err != nil {
		return nil, err
	}

	b := newBuilder(j.Name)
	for _, group := range j.StageWorkers {
		b.noteHosts(group...)
	}
	// Per-stage forward/backward compute time per micro-batch (the TP
	// degree shards each layer, so per-worker time is the layer time).
	stageFwd := make([]unit.Time, S)
	stageBwd := make([]unit.Time, S)
	stageActOut := make([]unit.Bytes, S)
	for s, layers := range parts {
		for _, l := range layers {
			stageFwd[s] += j.Model.Layers[l].Fwd
			stageBwd[s] += j.Model.Layers[l].Bwd
		}
		stageActOut[s] = j.Model.Layers[layers[len(layers)-1]].Activations
	}

	var prevBarrier []string
	for it := 0; it < j.Iterations; it++ {
		// Group declarations: inter-stage EchelonFlows (Eq. 6).
		for s := 0; s+1 < S; s++ {
			b.group(b.id("it%d/fwd%d", it, s), core.Pipeline{T: stageFwd[s+1]})
			b.group(b.id("it%d/bwd%d", it, s+1), core.Pipeline{T: stageBwd[s]})
		}

		fwDone := make([][][]string, S) // [s][m] = per-rank last-layer computes
		// Forward: micro-batches in order, stages in order, layers inside.
		for m := 0; m < j.MicroBatches; m++ {
			for s := 0; s < S; s++ {
				group := j.StageWorkers[s]
				if fwDone[s] == nil {
					fwDone[s] = make([][]string, j.MicroBatches)
				}
				// Entry dependency: the previous stage's activation flows
				// (per rank), or the iteration barrier at stage 0.
				entry := make([][]string, k)
				if s > 0 {
					for r := 0; r < k; r++ {
						entry[r] = []string{b.id("it%d/act/s%dm%dr%d", it, s-1, m, r)}
					}
				} else if len(prevBarrier) > 0 {
					for r := 0; r < k; r++ {
						entry[r] = prevBarrier
					}
				}
				var barrier []string // previous layer's all-reduce exits
				for li, l := range parts[s] {
					layer := j.Model.Layers[l]
					ids := make([]string, k)
					for r, w := range group {
						deps := append([]string{}, barrier...)
						if li == 0 {
							deps = append(deps, entry[r]...)
						}
						id, err := b.compute(b.id("it%d/fw/s%dm%dl%dr%d", it, s, m, l, r), w, layer.Fwd, deps...)
						if err != nil {
							return nil, err
						}
						ids[r] = id
					}
					// Intra-stage activation all-reduce (Coflow, Eq. 5).
					agroup := b.group(b.id("it%d/as/s%dm%dl%d", it, s, m, l), core.Coflow{})
					op, err := collective.RingAllReduce(b.w.Graph,
						b.id("it%d/as/s%dm%dl%d", it, s, m, l), group, layer.Activations, agroup, 0, nil)
					if err != nil {
						return nil, err
					}
					for r, e := range op.Step0 {
						if err := b.w.Graph.Depend(ids[r], e); err != nil {
							return nil, err
						}
					}
					barrier = op.Last
					fwDone[s][m] = ids
				}
				// Inter-stage activation transfer, rank to rank (sharded).
				if s+1 < S {
					for r := 0; r < k; r++ {
						if _, err := collective.P2P(b.w.Graph,
							b.id("it%d/act/s%dm%dr%d", it, s, m, r),
							group[r], j.StageWorkers[s+1][r],
							stageActOut[s]/unit.Bytes(k),
							b.id("it%d/fwd%d", it, s), m, barrier); err != nil {
							return nil, err
						}
					}
				}
			}
		}

		// Backward: micro-batches in reverse (GPipe drain), stages in
		// reverse, layers in reverse, with per-layer gradient all-reduces.
		bwHead := make([]map[int][]string, S) // [s][m] = first-layer bwd computes
		for s := range bwHead {
			bwHead[s] = make(map[int][]string)
		}
		for mi := 0; mi < j.MicroBatches; mi++ {
			m := j.MicroBatches - 1 - mi
			for s := S - 1; s >= 0; s-- {
				group := j.StageWorkers[s]
				entry := make([][]string, k)
				if s < S-1 {
					for r := 0; r < k; r++ {
						entry[r] = []string{b.id("it%d/grad/s%dm%dr%d", it, s+1, m, r)}
					}
				} else {
					for r := 0; r < k; r++ {
						entry[r] = []string{fwDone[s][m][r]}
					}
				}
				var barrier []string
				for li := len(parts[s]) - 1; li >= 0; li-- {
					l := parts[s][li]
					layer := j.Model.Layers[l]
					ids := make([]string, k)
					for r, w := range group {
						deps := append([]string{}, barrier...)
						if li == len(parts[s])-1 {
							deps = append(deps, entry[r]...)
						}
						id, err := b.compute(b.id("it%d/bw/s%dm%dl%dr%d", it, s, m, l, r), w, layer.Bwd, deps...)
						if err != nil {
							return nil, err
						}
						ids[r] = id
					}
					ggroup := b.group(b.id("it%d/gs/s%dm%dl%d", it, s, m, l), core.Coflow{})
					op, err := collective.RingAllReduce(b.w.Graph,
						b.id("it%d/gs/s%dm%dl%d", it, s, m, l), group, layer.Activations, ggroup, 0, nil)
					if err != nil {
						return nil, err
					}
					for r, e := range op.Step0 {
						if err := b.w.Graph.Depend(ids[r], e); err != nil {
							return nil, err
						}
					}
					barrier = op.Last
					bwHead[s][m] = ids
				}
				if s > 0 {
					for r := 0; r < k; r++ {
						if _, err := collective.P2P(b.w.Graph,
							b.id("it%d/grad/s%dm%dr%d", it, s, m, r),
							group[r], j.StageWorkers[s-1][r],
							stageActOut[s-1]/unit.Bytes(k),
							b.id("it%d/bwd%d", it, s), mi, barrier); err != nil {
							return nil, err
						}
					}
				}
			}
		}

		// Iteration barrier: per-stage optimizer steps after the last
		// drained micro-batch (m = 0).
		prevBarrier = prevBarrier[:0]
		for s := 0; s < S; s++ {
			for r, w := range j.StageWorkers[s] {
				id, err := b.compute(b.id("it%d/upd/s%dr%d", it, s, r), w, 0, bwHead[s][0][r])
				if err != nil {
					return nil, err
				}
				prevBarrier = append(prevBarrier, id)
			}
		}
	}
	return b.finish(append([]string(nil), prevBarrier...))
}
