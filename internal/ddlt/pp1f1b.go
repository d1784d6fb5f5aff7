package ddlt

import (
	"fmt"

	"echelonflow/internal/collective"
	"echelonflow/internal/core"
	"echelonflow/internal/unit"
)

// Pipeline1F1B is the 1F1B (one-forward-one-backward, PipeDream-flush
// style) pipeline schedule the paper cites as the "later PP
// implementations" that reorder computations to reduce idleness (§2.1,
// [40–42]): each stage runs S−1−s warm-up forwards, then alternates one
// forward with one backward, then drains the remaining backwards.
// Backwards proceed in micro-batch order (unlike GPipe's reverse drain),
// bounding in-flight activations at S−s per stage.
//
// The activation and gradient flows of each worker pair still form
// EchelonFlows, but their ideal finish times are no longer uniformly
// spaced: per §4 Case II, "relations between the data flows can also be
// expressed as an arrangement function, albeit more complicated than
// Eq. 6". Build emits a Pipeline arrangement as the initial guess; the
// intended workflow profiles an uncontended iteration and calibrates the
// groups to the profiled Absolute arrangement:
//
//	w, _ := job.Build()
//	res, _ := (run w on an uncontended fabric)
//	p := profile.FromResult(res)
//	arr, _ := p.DeriveAbsolute(w.Graph, res, "job/it0/fwd0")
//	w.Arrangements["job/it0/fwd0"] = arr  // or ddlt.Calibrate(w, ...)
type Pipeline1F1B struct {
	Name  string
	Model Model
	// Workers lists the stage hosts in pipeline order.
	Workers      []string
	MicroBatches int
	// UpdateTime is the per-stage optimizer step at the iteration barrier.
	UpdateTime unit.Time
	Iterations int
}

// unitKind tags entries of a stage's 1F1B execution order.
type unitKind int

const (
	unitFwd unitKind = iota
	unitBwd
)

// schedule1F1B returns stage s's compute order as (kind, micro-batch)
// pairs: warm-up forwards, steady 1F1B pairs, cool-down backwards.
func schedule1F1B(s, S, M int) []struct {
	kind unitKind
	m    int
} {
	type entry = struct {
		kind unitKind
		m    int
	}
	warmup := S - 1 - s
	if warmup > M {
		warmup = M
	}
	var out []entry
	for m := 0; m < warmup; m++ {
		out = append(out, entry{unitFwd, m})
	}
	for k := 0; warmup+k < M; k++ {
		out = append(out, entry{unitFwd, warmup + k})
		out = append(out, entry{unitBwd, k})
	}
	for m := M - warmup; m < M; m++ {
		out = append(out, entry{unitBwd, m})
	}
	return out
}

// Build compiles the job into a workload.
func (j Pipeline1F1B) Build() (*Workload, error) {
	if err := validateJobCommon(j.Name, j.Model, j.Workers, j.Iterations); err != nil {
		return nil, err
	}
	if j.MicroBatches < 1 {
		return nil, fmt.Errorf("ddlt: job %q needs >=1 micro-batch", j.Name)
	}
	if j.UpdateTime < 0 {
		return nil, fmt.Errorf("ddlt: job %q has negative UpdateTime", j.Name)
	}
	pg := PipelineGPipe{Name: j.Name, Model: j.Model, Workers: j.Workers,
		MicroBatches: j.MicroBatches, UpdateTime: j.UpdateTime, Iterations: j.Iterations}
	infos, err := pg.stages()
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
	type dep struct{ from, to string }
	var deps []dep
	var prevUpd []string
	for it := 0; it < j.Iterations; it++ {
		for s := 0; s+1 < S; s++ {
			fwdG[s] = b.group(b.id("it%d/fwd%d", it, s), core.Pipeline{T: infos[s+1].fwd})
			bwdG[s+1] = b.group(b.id("it%d/bwd%d", it, s+1), core.Pipeline{T: infos[s].bwd})
		}
		for s := 0; s < S; s++ {
			for m := 0; m < M; m++ {
				k := s*M + m
				fw[k], bw[k] = b.id("it%d/fw/s%dm%d", it, s, m), b.id("it%d/bw/s%dm%d", it, s, m)
				if s+1 < S {
					act[k] = b.id("it%d/act/s%dm%d", it, s, m)
				}
				if s > 0 {
					grad[k] = b.id("it%d/grad/s%dm%d", it, s, m)
				}
			}
		}

		// Pass 1: create every compute (in each stage's 1F1B order, so host
		// Seq matches the schedule) and every flow; dependencies are wired
		// in pass 2, since backwards reference gradient flows of later
		// stages. Each stage's computes are also chained explicitly — 1F1B
		// runs a fixed per-stage order, not an opportunistic one.
		deps = deps[:0]
		for s := 0; s < S; s++ {
			prevOnHost := ""
			for _, u := range schedule1F1B(s, S, M) {
				k := s*M + u.m
				var id string
				if u.kind == unitFwd {
					id = fw[k]
					if _, err := b.compute(id, j.Workers[s], infos[s].fwd); err != nil {
						return nil, err
					}
					if s > 0 {
						deps = append(deps, dep{act[k-M], id})
					}
					if len(prevUpd) > 0 {
						deps = append(deps, dep{prevUpd[s], id})
					}
					if s+1 < S {
						if _, err := collective.P2P(b.w.Graph, act[k],
							j.Workers[s], j.Workers[s+1], infos[s].actOut,
							fwdG[s], u.m, []string{id}); err != nil {
							return nil, err
						}
					}
				} else {
					id = bw[k]
					if _, err := b.compute(id, j.Workers[s], infos[s].bwd); err != nil {
						return nil, err
					}
					if s < S-1 {
						deps = append(deps, dep{grad[k+M], id})
					} else {
						deps = append(deps, dep{fw[k], id})
					}
					if s > 0 {
						// 1F1B drains micro-batches in order, so the
						// gradient flow's stage index is its micro-batch.
						if _, err := collective.P2P(b.w.Graph, grad[k],
							j.Workers[s], j.Workers[s-1], infos[s].gradIn,
							bwdG[s], u.m, []string{id}); err != nil {
							return nil, err
						}
					}
				}
				if prevOnHost != "" {
					deps = append(deps, dep{prevOnHost, id})
				}
				prevOnHost = id
			}
		}
		for _, d := range deps {
			if err := b.w.Graph.Depend(d.from, d.to); err != nil {
				return nil, err
			}
		}
		prevUpd = prevUpd[:0]
		for s := 0; s < S; s++ {
			id, err := b.compute(b.id("it%d/upd%d", it, s), j.Workers[s], j.UpdateTime, bw[s*M+M-1])
			if err != nil {
				return nil, err
			}
			prevUpd = append(prevUpd, id)
		}
	}
	return b.finish(append([]string(nil), prevUpd...))
}

// Calibrate replaces a group's arrangement — typically with an Absolute
// arrangement profiled from an uncontended run (profile.DeriveAbsolute),
// the §3.1 workflow for PP variants whose pattern is not uniform.
func Calibrate(w *Workload, group string, arr core.Arrangement) error {
	if _, ok := w.Arrangements[group]; !ok {
		return fmt.Errorf("ddlt: workload has no group %q", group)
	}
	if arr == nil {
		return fmt.Errorf("ddlt: nil arrangement for group %q", group)
	}
	w.Arrangements[group] = arr
	return nil
}
