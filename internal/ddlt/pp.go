package ddlt

import (
	"fmt"

	"echelonflow/internal/collective"
	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// PipelineGPipe is GPipe-style pipeline parallelism (Fig. 1): the model is
// partitioned into contiguous stages, one per worker; each mini-batch splits
// into micro-batches pipelined through the stages. Forward activations flow
// stage s → s+1 and backward gradients s → s−1. The p2p flows from one
// worker to the next across micro-batches form an EchelonFlow with the
// Eq. 6 pipeline arrangement, whose distance T is the consuming stage's
// per-micro-batch computation time.
type PipelineGPipe struct {
	Name  string
	Model Model
	// Workers lists the stage hosts in pipeline order.
	Workers      []string
	MicroBatches int
	// UpdateTime is the per-stage optimizer step at the iteration barrier.
	UpdateTime unit.Time
	Iterations int
}

// stageInfo caches a stage's per-micro-batch times and output activation.
type stageInfo struct {
	fwd, bwd unit.Time
	actOut   unit.Bytes // activation volume leaving this stage
	gradIn   unit.Bytes // gradient volume returning to the previous stage
}

func (j PipelineGPipe) stages() ([]stageInfo, error) {
	parts, err := j.Model.Partition(len(j.Workers))
	if err != nil {
		return nil, err
	}
	infos := make([]stageInfo, len(parts))
	for s, layers := range parts {
		var info stageInfo
		for _, l := range layers {
			info.fwd += j.Model.Layers[l].Fwd
			info.bwd += j.Model.Layers[l].Bwd
		}
		info.actOut = j.Model.Layers[layers[len(layers)-1]].Activations
		// The gradient returned to stage s-1 matches that stage's output
		// activations, i.e. this stage's input.
		if s > 0 {
			prev := parts[s-1]
			info.gradIn = j.Model.Layers[prev[len(prev)-1]].Activations
		}
		infos[s] = info
	}
	return infos, nil
}

// Build compiles the job into a workload.
func (j PipelineGPipe) Build() (*Workload, error) {
	if err := validateJobCommon(j.Name, j.Model, j.Workers, j.Iterations); err != nil {
		return nil, err
	}
	if j.MicroBatches < 1 {
		return nil, fmt.Errorf("ddlt: job %q needs >=1 micro-batch", j.Name)
	}
	if j.UpdateTime < 0 {
		return nil, fmt.Errorf("ddlt: job %q has negative UpdateTime", j.Name)
	}
	infos, err := j.stages()
	if err != nil {
		return nil, err
	}
	S, M := len(j.Workers), j.MicroBatches
	b := newBuilder(j.Name)
	b.noteHosts(j.Workers...)

	// One ID table per node kind, indexed s*M+m and reused by every
	// iteration, and the iteration's group names per stage.
	ids := make([]string, 4*S*M+2*S)
	fw, act, bw, grad := ids[:S*M], ids[S*M:2*S*M], ids[2*S*M:3*S*M], ids[3*S*M:4*S*M]
	fwdG, bwdG := ids[4*S*M:4*S*M+S], ids[4*S*M+S:]

	// prevUpd[s] is stage s's optimizer update from the previous iteration:
	// every forward of the next iteration on that stage must wait for it.
	var prevUpd []string
	for it := 0; it < j.Iterations; it++ {
		// Forward phase: micro-batches in order, stages in order. The
		// activation flows of each worker pair form one EchelonFlow with
		// distance T = the consuming stage's forward time (Eq. 6).
		for s := 0; s+1 < S; s++ {
			fwdG[s] = b.group(b.id("it%d/fwd%d", it, s), core.Pipeline{T: infos[s+1].fwd})
		}
		for m := 0; m < M; m++ {
			for s := 0; s < S; s++ {
				var scratch [2]string
				deps := scratch[:0]
				if s > 0 {
					deps = append(deps, act[(s-1)*M+m])
				}
				// Iteration barrier: the stage's parameters are only valid
				// after its previous-iteration optimizer step.
				if len(prevUpd) > 0 {
					deps = append(deps, prevUpd[s])
				}
				k := s*M + m
				fw[k] = b.id("it%d/fw/s%dm%d", it, s, m)
				if _, err := b.compute(fw[k], j.Workers[s], infos[s].fwd, deps...); err != nil {
					return nil, err
				}
				if s+1 < S {
					act[k] = b.id("it%d/act/s%dm%d", it, s, m)
					if _, err := collective.P2P(b.w.Graph, act[k],
						j.Workers[s], j.Workers[s+1], infos[s].actOut,
						fwdG[s], m, []string{fw[k]}); err != nil {
						return nil, err
					}
				}
			}
		}
		// Backward phase: micro-batches in reverse order (Fig. 1a), stages
		// in reverse. Gradient flows of each worker pair form another
		// EchelonFlow with distance T = the consuming stage's backward time.
		for s := 1; s < S; s++ {
			bwdG[s] = b.group(b.id("it%d/bwd%d", it, s), core.Pipeline{T: infos[s-1].bwd})
		}
		for mi := 0; mi < M; mi++ {
			m := M - 1 - mi
			for s := S - 1; s >= 0; s-- {
				k := s*M + m
				dep := fw[k]
				if s < S-1 {
					dep = grad[k+M]
				}
				bw[k] = b.id("it%d/bw/s%dm%d", it, s, m)
				if _, err := b.compute(bw[k], j.Workers[s], infos[s].bwd, dep); err != nil {
					return nil, err
				}
				if s > 0 {
					grad[k] = b.id("it%d/grad/s%dm%d", it, s, m)
					if _, err := collective.P2P(b.w.Graph, grad[k],
						j.Workers[s], j.Workers[s-1], infos[s].gradIn,
						bwdG[s], mi, []string{bw[k]}); err != nil {
						return nil, err
					}
				}
			}
		}
		// Iteration barrier: per-stage optimizer updates after the last
		// backward micro-batch (m = 0 under the reversed order).
		prevUpd = prevUpd[:0]
		for s := 0; s < S; s++ {
			id, err := b.compute(b.id("it%d/upd%d", it, s), j.Workers[s], j.UpdateTime, bw[s*M])
			if err != nil {
				return nil, err
			}
			prevUpd = append(prevUpd, id)
		}
	}
	return b.finish(append([]string(nil), prevUpd...))
}
