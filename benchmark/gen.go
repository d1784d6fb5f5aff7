package main

import (
	"fmt"
	"math/rand"

	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// nicRate is every host's NIC capacity in both directions: 1 GB/s.
const nicRate unit.Rate = 1e9

// liveParadigms are the six paradigms the job queue compiles.
var liveParadigms = []string{"dp", "ps", "pp", "1f1b", "tp", "fsdp"}

// jobShape is the structural mix of one workload: which paradigms at which
// worker counts and iteration counts.
type jobShape struct {
	paradigms []string
	workers   []int
	iters     []int
	variants  int // 1..3 shape variants per paradigm and worker count; 0 means 3
}

// jobStruct is one card of the deck: everything about a job that decides how
// many flows and groups it compiles to.
type jobStruct struct {
	paradigm string
	workers  int
	variant  int // 0..variants-1: layers, micro-batches, buckets, prefetch depth, iterations
}

// jobGen is the seeded job stream of one stream (a tenant connection, or
// the sim mix). The generator is the only consumer of the seed: everything
// the program receives is a wire.JobSpec drawn here.
//
// Sampling is stratified. The structural deck (paradigm x workers x variant)
// is the same for every seed; the run seed shuffles it once for all streams,
// and stream k of n deals cards k, k+n, k+2n, ... so that together the
// streams go through the deck in order, again and again. The continuous
// quantities (volumes, compute times) come from the stream's own generator.
// Every seed therefore offers the same multiset of work in another order and
// at other sizes, which is what lets runs at different seeds be compared.
type jobGen struct {
	rng     *rand.Rand
	shape   jobShape
	deck    []jobStruct
	prefix  string
	n       int
	at, per int // next card, and the stride between this stream's cards
}

// newJobGen derives stream `stream` of `streams` from the run seed. The
// multiplier keeps neighbouring seeds' streams apart.
func newJobGen(seed int64, stream, streams int, shape jobShape) *jobGen {
	g := &jobGen{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(stream))),
		shape:  shape,
		prefix: fmt.Sprintf("c%d", stream),
		at:     stream, per: streams,
	}
	if shape.variants == 0 {
		shape.variants = 3
	}
	for _, p := range shape.paradigms {
		for _, w := range shape.workers {
			for v := 0; v < shape.variants; v++ {
				g.deck = append(g.deck, jobStruct{p, w, v})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	return g
}

// next deals one job. Layer volumes are 1–4 GB so that, on 1 GB/s NICs, a
// released flow outlives the in-flight window by orders of magnitude and the
// scheduler always sees real remaining volume, never the drained-flow floor.
func (g *jobGen) next() wire.JobSpec {
	st := g.deck[g.at%len(g.deck)]
	g.at += g.per
	id := fmt.Sprintf("%s/j%d", g.prefix, g.n)
	g.n++
	j := wire.JobSpec{
		ID: id, Tenant: g.prefix, Paradigm: st.paradigm, Workers: st.workers,
		Layers: 2 + st.variant,
		Params: unit.Bytes((1 + 3*g.rng.Float64()) * 1e9),
		Acts:   unit.Bytes((1 + 3*g.rng.Float64()) * 1e9),
		Fwd:    unit.Time(0.05 + 0.1*g.rng.Float64()),
		Bwd:    unit.Time(0.05 + 0.1*g.rng.Float64()),

		Iterations: g.shape.iters[st.variant%len(g.shape.iters)],
	}
	switch st.paradigm {
	case "dp", "ps":
		j.Buckets = st.variant
		if st.paradigm == "ps" {
			j.AggTime = 0.05
		}
	case "pp", "1f1b":
		j.Micro = 2 + st.variant
		j.UpdateTime = 0.05
		if j.Layers < st.workers {
			j.Layers = st.workers // pipelines need one layer per stage
		}
	case "fsdp":
		j.Prefetch = st.variant
	}
	return j
}

// hostNames names n hosts h0000…; the width keeps lexical and numeric order
// the same, which the placement policies' name tie-break relies on.
func hostNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("h%04d", i)
	}
	return out
}
