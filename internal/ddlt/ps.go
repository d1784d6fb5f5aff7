package ddlt

import (
	"fmt"

	"echelonflow/internal/collective"
	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// DPParameterServer is data parallelism with a parameter-server gradient
// exchange (Fig. 4b): workers push gradients per bucket to the PS, the PS
// aggregates and updates, and workers pull the fresh weights. The pushes of
// a bucket form one Coflow and the pulls another (§4 Case I: "the
// completion of them all signifies the start of the next training
// iteration").
type DPParameterServer struct {
	Name    string
	Model   Model
	Workers []string
	// PS is the parameter-server host; it must not be a worker.
	PS string
	// BucketCount as in DPAllReduce; 0 means per-layer buckets.
	BucketCount int
	// AggTime is the PS-side aggregation/update compute time per bucket.
	AggTime    unit.Time
	Iterations int
}

// Build compiles the job into a workload.
func (j DPParameterServer) Build() (*Workload, error) {
	if err := validateJobCommon(j.Name, j.Model, j.Workers, j.Iterations); err != nil {
		return nil, err
	}
	if j.PS == "" {
		return nil, fmt.Errorf("ddlt: job %q needs a PS host", j.Name)
	}
	for _, w := range j.Workers {
		if w == j.PS {
			return nil, fmt.Errorf("ddlt: job %q: PS host %q is also a worker", j.Name, j.PS)
		}
	}
	if j.AggTime < 0 {
		return nil, fmt.Errorf("ddlt: job %q has negative AggTime", j.Name)
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
	b.noteHost(j.PS)

	// prev and cur hold the previous and current backward stage's computes,
	// one per worker.
	prev, cur := make([]string, len(j.Workers)), make([]string, len(j.Workers))
	var barrier []string // previous iteration's pull flows
	for it := 0; it < j.Iterations; it++ {
		for i, w := range j.Workers {
			id, err := b.compute(b.id("it%d/fw%d", it, i), w, j.Model.FwdTime(), barrier...)
			if err != nil {
				return nil, err
			}
			prev[i] = id
		}
		barrier = barrier[:0]
		for bi, bucket := range buckets {
			dur := bucketBwdTime(j.Model, bucket)
			vol := bucketParams(j.Model, bucket)
			for i, w := range j.Workers {
				id, err := b.compute(b.id("it%d/bw%dw%d", it, bi, i), w, dur, prev[i])
				if err != nil {
					return nil, err
				}
				cur[i] = id
			}
			prefix := b.id("it%d/b%d", it, bi)
			pushGroup := b.group(b.id("it%d/push%d", it, bi), core.Coflow{})
			push, err := collective.PSPush(b.w.Graph, prefix, j.Workers, j.PS, vol, pushGroup, 0, nil)
			if err != nil {
				return nil, err
			}
			for i, entry := range push.Step0 {
				if err := b.w.Graph.Depend(cur[i], entry); err != nil {
					return nil, err
				}
			}
			agg, err := b.compute(b.id("it%d/agg%d", it, bi), j.PS, j.AggTime, push.Last...)
			if err != nil {
				return nil, err
			}
			pullGroup := b.group(b.id("it%d/pull%d", it, bi), core.Coflow{})
			pull, err := collective.PSPull(b.w.Graph, prefix, j.Workers, j.PS, vol, pullGroup, 0, []string{agg})
			if err != nil {
				return nil, err
			}
			barrier = append(barrier, pull.Last...)
			prev, cur = cur, prev
		}
	}
	return b.finish(barrier)
}
