package queue

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
	"echelonflow/internal/wire"
)

// View is the placement policies' picture of the cluster at one admission
// decision: the fabric (capacities, racks) plus the load already committed
// to it. The coordinator assembles it from live flow state; tests and the
// queue oracle assemble it synthetically.
type View struct {
	Net fabric.Fabric
	// Egress/Ingress are per-host committed demand (remaining bytes of
	// unfinished flows, or any load proxy — policies only compare).
	Egress  map[string]unit.Bytes
	Ingress map[string]unit.Bytes
	// Workers counts queue-admitted job workers per host.
	Workers map[string]int
}

// NewView returns an empty view over a fabric.
func NewView(net fabric.Fabric) *View {
	return &View{
		Net:     net,
		Egress:  make(map[string]unit.Bytes),
		Ingress: make(map[string]unit.Bytes),
		Workers: make(map[string]int),
	}
}

// TotalCapacity sums each host's bottleneck port capacity — the bandwidth
// budget admission charges predicted job demand against.
func (v *View) TotalCapacity() unit.Rate {
	var sum unit.Rate
	for _, h := range v.Net.Hosts() {
		sum += unit.MinRate(h.Egress, h.Ingress)
	}
	return sum
}

// hostKey is what the placers rank a host by, read once per Place.
type hostKey struct {
	name    string
	workers int
	// load is the host's normalized port pressure: committed bytes over port
	// capacity, comparable across heterogeneous NICs. A host with no usable
	// port capacity (a faulted NIC, or an unknown host) is infinitely loaded,
	// not empty: ranking it at 0 made Spread/NetAware aim every new job at
	// dead hosts.
	load   float64
	usable bool // capacity in both port directions
}

// keys reads every host's key, in the fabric's insertion order.
func (v *View) keys() []hostKey {
	hosts := v.Net.Hosts()
	out := make([]hostKey, len(hosts))
	for i, h := range hosts {
		k := hostKey{name: h.Name, workers: v.Workers[h.Name], load: math.Inf(1)}
		if eg, in, ok := v.Net.Capacity(h.Name); ok && eg > 0 && in > 0 {
			k.usable = true
			k.load = float64(v.Egress[h.Name])/float64(eg) + float64(v.Ingress[h.Name])/float64(in)
		}
		out[i] = k
	}
	return out
}

// Placer binds a job's workers to hosts. Implementations must be
// deterministic in (spec, view): the coordinator journals only the chosen
// hosts, and tests replay decisions.
type Placer interface {
	Name() string
	// Place returns HostsNeeded(spec) distinct hosts, or an error when the
	// fabric cannot satisfy the job at all (too few hosts).
	Place(spec wire.JobSpec, v *View) ([]string, error)
}

// pickSorted orders hosts by the given order (name-tiebroken by the caller's
// order) and takes the first n.
func pickSorted(v *View, spec wire.JobSpec, order func(a, b hostKey) int) ([]string, error) {
	keys := v.keys()
	need := HostsNeeded(spec)
	if need > len(keys) {
		return nil, fmt.Errorf("queue: job %q needs %d hosts, fabric has %d", spec.ID, need, len(keys))
	}
	// Zero-capacity hosts are ineligible while enough live hosts exist; a
	// fabric too degraded to avoid them still places (the job stalls until
	// the fault recovers, rather than being rejected).
	alive := make([]hostKey, 0, len(keys))
	for _, k := range keys {
		if k.usable {
			alive = append(alive, k)
		}
	}
	if len(alive) >= need {
		keys = alive
	}
	slices.SortStableFunc(keys, order)
	out := make([]string, need)
	for i := range out {
		out[i] = keys[i].name
	}
	return out, nil
}

// Pack concentrates jobs: hosts already carrying the most admitted workers
// (then the most load) are chosen first, leaving the rest of the fabric
// empty for large arrivals. This is the locality-first baseline.
type Pack struct{}

// Name implements Placer.
func (Pack) Name() string { return "pack" }

// Place implements Placer.
func (Pack) Place(spec wire.JobSpec, v *View) ([]string, error) {
	return pickSorted(v, spec, func(a, b hostKey) int {
		if c := cmp.Compare(b.workers, a.workers); c != 0 {
			return c
		}
		if c := cmp.Compare(b.load, a.load); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
}

// Spread balances jobs: the least-occupied hosts (fewest admitted workers,
// then least load) are chosen first. This is the contention-avoidance
// baseline.
type Spread struct{}

// Name implements Placer.
func (Spread) Name() string { return "spread" }

// Place implements Placer.
func (Spread) Place(spec wire.JobSpec, v *View) ([]string, error) {
	return pickSorted(v, spec, func(a, b hostKey) int {
		if c := cmp.Compare(a.workers, b.workers); c != 0 {
			return c
		}
		if c := cmp.Compare(a.load, b.load); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
}

// NetAware places against the fabric's port footprints: hosts are ranked by
// normalized port pressure, and candidates in the rack (fabric leaf) where
// the job's placement so far is concentrating are preferred — cross-rack
// traffic rides oversubscribed spine uplinks, so keeping a job's workers
// together buys bandwidth that per-host balance alone cannot see. On a
// leafless big-switch fabric it degrades gracefully to load-ranked selection.
type NetAware struct {
	// CrossRackPenalty biases candidate scoring against leaving the rack the
	// job is accumulating in; 0 means DefaultCrossRackPenalty.
	CrossRackPenalty float64
}

// DefaultCrossRackPenalty is NetAware's default rack-escape bias,
// comparable to one fully-loaded port of pressure.
const DefaultCrossRackPenalty = 1.0

// Name implements Placer.
func (NetAware) Name() string { return "netaware" }

// Place implements Placer.
func (p NetAware) Place(spec wire.JobSpec, v *View) ([]string, error) {
	keys := v.keys()
	need := HostsNeeded(spec)
	if need > len(keys) {
		return nil, fmt.Errorf("queue: job %q needs %d hosts, fabric has %d", spec.ID, need, len(keys))
	}
	penalty := p.CrossRackPenalty
	if penalty <= 0 {
		penalty = DefaultCrossRackPenalty
	}
	racks := make([]string, len(keys))
	for i, k := range keys {
		racks[i] = v.Net.LeafOf(k.name)
	}
	chosen := make([]string, 0, need)
	used := make([]bool, len(keys))
	rackCount := make(map[string]int)
	for len(chosen) < need {
		best, bestScore := -1, 0.0
		for i, k := range keys {
			if used[i] {
				continue
			}
			score := k.load + float64(k.workers)
			if len(chosen) > 0 && rackCount[racks[i]] == 0 {
				// Candidate sits outside every rack the job occupies so far:
				// its traffic to the existing workers crosses uplinks.
				score += penalty
			}
			if best < 0 || score < bestScore || (score == bestScore && k.name < keys[best].name) {
				best, bestScore = i, score
			}
		}
		chosen = append(chosen, keys[best].name)
		used[best] = true
		rackCount[racks[best]]++
	}
	return chosen, nil
}

// PlacerByName resolves a CLI policy name.
func PlacerByName(name string) (Placer, error) {
	switch name {
	case "pack":
		return Pack{}, nil
	case "spread":
		return Spread{}, nil
	case "netaware":
		return NetAware{}, nil
	default:
		return nil, fmt.Errorf("queue: unknown placement policy %q (want pack, spread or netaware)", name)
	}
}
