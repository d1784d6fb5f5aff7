package ddlt

import (
	"echelonflow/internal/collective"
	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// DPAllReduce is data parallelism with ring all-reduce gradient exchange
// (Fig. 4, AllReduce architecture). Each worker holds a model replica; per
// iteration it runs a forward pass, then backward passes per gradient
// bucket, launching a ring all-reduce as each bucket's gradients become
// ready. The flows of each bucket's all-reduce form a Coflow (§4 Case I):
// training moves to the next iteration only after they all finish.
type DPAllReduce struct {
	Name    string
	Model   Model
	Workers []string
	// BucketCount is the number of gradient buckets; 0 means one bucket
	// per layer (finest-grained overlap of computation and communication).
	BucketCount int
	Iterations  int
}

// Build compiles the job into a workload.
func (j DPAllReduce) Build() (*Workload, error) {
	if err := validateJobCommon(j.Name, j.Model, j.Workers, j.Iterations); err != nil {
		return nil, err
	}
	k := j.BucketCount
	if k == 0 {
		k = len(j.Model.Layers)
	}
	buckets, err := j.Model.Buckets(k)
	if err != nil {
		return nil, err
	}
	b := newBuilder(j.Name)
	b.noteHosts(j.Workers...)

	// prev and cur hold the previous and current backward stage's computes,
	// one per worker.
	prev, cur := make([]string, len(j.Workers)), make([]string, len(j.Workers))
	var barrier []string // previous iteration's all-reduce exit flows
	for it := 0; it < j.Iterations; it++ {
		// Forward pass per worker.
		for i, w := range j.Workers {
			id, err := b.compute(b.id("it%d/fw%d", it, i), w, j.Model.FwdTime(), barrier...)
			if err != nil {
				return nil, err
			}
			prev[i] = id
		}
		// Backward per bucket (deepest layers first), launching the
		// bucket's all-reduce as soon as each worker's gradients are ready.
		barrier = barrier[:0]
		for bi, bucket := range buckets {
			dur := bucketBwdTime(j.Model, bucket)
			for i, w := range j.Workers {
				id, err := b.compute(b.id("it%d/bw%dw%d", it, bi, i), w, dur, prev[i])
				if err != nil {
					return nil, err
				}
				cur[i] = id
			}
			group := b.group(b.id("it%d/ar%d", it, bi), core.Coflow{})
			op, err := collective.RingAllReduce(b.w.Graph, group, j.Workers,
				bucketParams(j.Model, bucket), group, 0, nil)
			if err != nil {
				return nil, err
			}
			// Worker i's first send waits only for worker i's backward.
			for i, entry := range op.Step0 {
				if err := b.w.Graph.Depend(cur[i], entry); err != nil {
					return nil, err
				}
			}
			barrier = append(barrier, op.Last...)
			prev, cur = cur, prev
		}
	}
	return b.finish(barrier)
}

// bucketBwdTime sums backward compute over a bucket's layers.
func bucketBwdTime(m Model, bucket []int) (d unit.Time) {
	for _, l := range bucket {
		d += m.Layers[l].Bwd
	}
	return d
}

// bucketParams sums parameter (gradient) volume over a bucket's layers.
func bucketParams(m Model, bucket []int) (v unit.Bytes) {
	for _, l := range bucket {
		v += m.Layers[l].Params
	}
	return v
}
