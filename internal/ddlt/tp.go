package ddlt

import (
	"echelonflow/internal/collective"
	"echelonflow/internal/core"
)

// TensorParallel is Megatron-style tensor parallelism (Fig. 5): every layer
// is sharded across all workers. Each layer's forward computation ends in an
// all-reduce synchronizing activations, and each layer's backward in an
// all-reduce for the corresponding gradients. The all-to-all flows of each
// all-reduce form a Coflow (§4 Case I): "they altogether barrier
// computation in the next layer".
type TensorParallel struct {
	Name       string
	Model      Model
	Workers    []string
	Iterations int
}

// Build compiles the job into a workload.
func (j TensorParallel) Build() (*Workload, error) {
	if err := validateJobCommon(j.Name, j.Model, j.Workers, j.Iterations); err != nil {
		return nil, err
	}
	b := newBuilder(j.Name)
	b.noteHosts(j.Workers...)
	n := len(j.Model.Layers)

	ids := make([]string, len(j.Workers)) // the layer's computes, one per worker
	var barrier []string
	for it := 0; it < j.Iterations; it++ {
		// Forward: per-layer compute then activation all-reduce.
		for l := 0; l < n; l++ {
			layer := j.Model.Layers[l]
			for i, w := range j.Workers {
				// barrier holds the previous layer's all-reduce exit flows
				// (or the previous iteration's final all-reduce for l == 0).
				id, err := b.compute(b.id("it%d/fw/l%dw%d", it, l, i), w, layer.Fwd, barrier...)
				if err != nil {
					return nil, err
				}
				ids[i] = id
			}
			group := b.group(b.id("it%d/as%d", it, l), core.Coflow{})
			op, err := collective.RingAllReduce(b.w.Graph, b.id("it%d/as%d", it, l),
				j.Workers, layer.Activations, group, 0, nil)
			if err != nil {
				return nil, err
			}
			for i, entry := range op.Step0 {
				if err := b.w.Graph.Depend(ids[i], entry); err != nil {
					return nil, err
				}
			}
			barrier = op.Last
		}
		// Backward: layers in reverse, gradient all-reduce per layer.
		for l := n - 1; l >= 0; l-- {
			layer := j.Model.Layers[l]
			for i, w := range j.Workers {
				id, err := b.compute(b.id("it%d/bw/l%dw%d", it, l, i), w, layer.Bwd, barrier...)
				if err != nil {
					return nil, err
				}
				ids[i] = id
			}
			group := b.group(b.id("it%d/gs%d", it, l), core.Coflow{})
			op, err := collective.RingAllReduce(b.w.Graph, b.id("it%d/gs%d", it, l),
				j.Workers, layer.Activations, group, 0, nil)
			if err != nil {
				return nil, err
			}
			for i, entry := range op.Step0 {
				if err := b.w.Graph.Depend(ids[i], entry); err != nil {
					return nil, err
				}
			}
			barrier = op.Last
		}
	}
	return b.finish(barrier)
}
