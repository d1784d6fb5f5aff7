// Package fabric models the datacenter network as fluid-flow link
// capacities. Its one native type, Network, covers both the "big switch" the
// paper's Coordinator schedules against (§5) — a non-blocking core where only
// host NIC egress and ingress capacities constrain transfers, the standard
// model of the Coflow literature the paper builds on (Varys, Sincronia) — and
// two-tier Clos fabrics, where hosts attach to leaf switches and each leaf
// links to every spine:
//
//   - a big switch is a Network with no leaves;
//   - a rack is a leaf of a one-spine Network (its uplink and downlink are
//     the leaf's one spine link pair);
//   - a Clos is a leaf of an N-spine Network.
//
// Schedulers assign per-flow rates, and an allocation is feasible when no
// link's capacity is exceeded.
package fabric

import (
	"fmt"

	"echelonflow/internal/unit"
)

// Host is one endpoint (a GPU worker or parameter server) attached to the
// fabric with independent send and receive capacities.
type Host struct {
	Name    string
	Egress  unit.Rate // outbound NIC capacity
	Ingress unit.Rate // inbound NIC capacity
}

// Network is a set of hosts on a core of spine switches. Hosts attach either
// directly to the core or to a leaf switch; each leaf has an individually
// capacitated uplink to and downlink from every spine, and each cross-leaf
// flow is pinned to one spine by a deterministic ECMP-style hash of its
// endpoints. A cross-leaf flow therefore consumes four links — source NIC,
// srcLeaf→spine uplink, spine→dstLeaf downlink, destination NIC — while a
// flow within one leaf, or with a core-attached endpoint, touches only the
// two NICs.
//
// Link naming: the uplink from leaf L to spine k is LinkUp "L/sk"; the
// downlink from spine k to leaf L is LinkDown "L/sk".
//
// The zero value is not ready for use; call NewNetwork or NewLeafSpine.
type Network struct {
	hosts map[string]*Host
	names []string // insertion order, for deterministic iteration

	spines  int
	leaves  []string       // registration order
	leafIdx map[string]int // leaf → position in leaves
	leafOf  map[string]int // host → position of its leaf (absent: core-attached)
	// Spine links are built once, in AddLeaf, so that the per-flow path
	// lookup formats no names: leaf i's links to spine k are up[i*spines+k]
	// and down[i*spines+k], and spineLink maps their shared name back.
	up, down  []Link
	spineLink map[string]int

	// gen counts every mutation (topology or capacity). Schedulers key
	// cached capacity profiles and scheduling plans on it so a SetCapacity
	// or AddHost between scheduling rounds invalidates them.
	gen uint64
}

// NewNetwork returns an empty one-spine network: a big switch until leaves
// are added, after which each leaf is a rack.
func NewNetwork() *Network { return newNetwork(1) }

// NewLeafSpine returns an empty network whose leaves each link to the given
// number of spine switches (at least 1).
func NewLeafSpine(spines int) (*Network, error) {
	if spines < 1 {
		return nil, fmt.Errorf("fabric: leaf-spine needs at least 1 spine, got %d", spines)
	}
	return newNetwork(spines), nil
}

func newNetwork(spines int) *Network {
	return &Network{
		hosts:     make(map[string]*Host),
		spines:    spines,
		leafIdx:   make(map[string]int),
		leafOf:    make(map[string]int),
		spineLink: make(map[string]int),
	}
}

// Generation identifies the network's mutation epoch: it increases on every
// topology or capacity change. Equal generations guarantee identical
// capacities and topology.
func (n *Network) Generation() uint64 { return n.gen }

// AddLeaf registers a leaf switch with uniform per-spine link capacities:
// every one of its spine uplinks and downlinks gets upPerSpine/downPerSpine.
func (n *Network) AddLeaf(name string, upPerSpine, downPerSpine unit.Rate) error {
	if name == "" {
		return fmt.Errorf("fabric: leaf must have a name")
	}
	if upPerSpine < 0 || downPerSpine < 0 {
		return fmt.Errorf("fabric: leaf %q has negative link capacity", name)
	}
	if _, ok := n.leafIdx[name]; ok {
		return fmt.Errorf("fabric: duplicate leaf %q", name)
	}
	n.leafIdx[name] = len(n.leaves)
	n.leaves = append(n.leaves, name)
	for k := 0; k < n.spines; k++ {
		link := spineLinkName(name, k)
		n.spineLink[link] = len(n.up)
		n.up = append(n.up, Link{Key: LinkKey{Kind: LinkUp, Name: link}, Capacity: upPerSpine})
		n.down = append(n.down, Link{Key: LinkKey{Kind: LinkDown, Name: link}, Capacity: downPerSpine})
	}
	n.gen++
	return nil
}

// spineLinkName is the canonical "leaf/spine" link name.
func spineLinkName(leaf string, spine int) string {
	return fmt.Sprintf("%s/s%d", leaf, spine)
}

// AddHost attaches a host with the given NIC capacities to a leaf, or
// directly to the core when leaf is "".
func (n *Network) AddHost(name, leaf string, egress, ingress unit.Rate) error {
	if name == "" {
		return fmt.Errorf("fabric: host must have a name")
	}
	if egress < 0 || ingress < 0 {
		return fmt.Errorf("fabric: host %q has negative capacity", name)
	}
	if _, ok := n.hosts[name]; ok {
		return fmt.Errorf("fabric: duplicate host %q", name)
	}
	if leaf != "" {
		li, ok := n.leafIdx[leaf]
		if !ok {
			return fmt.Errorf("fabric: unknown leaf %q", leaf)
		}
		n.leafOf[name] = li
	}
	n.hosts[name] = &Host{Name: name, Egress: egress, Ingress: ingress}
	n.names = append(n.names, name)
	n.gen++
	return nil
}

// AddUniformHosts attaches every named host to the core with symmetric
// capacity c. It panics on duplicates; it is a scenario-construction helper.
func (n *Network) AddUniformHosts(c unit.Rate, names ...string) {
	for _, name := range names {
		if err := n.AddHost(name, "", c, c); err != nil {
			panic(err)
		}
	}
}

// MoveHost re-attaches a host to a different leaf, so placement sweeps can
// compare layouts on one fabric. A real move bumps the generation, so plan
// caches and delta state keyed on it are discarded; a no-op move mutates
// nothing.
func (n *Network) MoveHost(name, leaf string) error {
	if n.hosts[name] == nil {
		return fmt.Errorf("fabric: unknown host %q", name)
	}
	li, ok := n.leafIdx[leaf]
	if !ok {
		return fmt.Errorf("fabric: unknown leaf %q", leaf)
	}
	if cur, ok := n.leafOf[name]; ok && cur == li {
		return nil
	}
	n.leafOf[name] = li
	n.gen++
	return nil
}

// Host returns the named host, or nil.
func (n *Network) Host(name string) *Host { return n.hosts[name] }

// Capacity reports a host's current port capacities. The ok result is false
// for unknown hosts. Fault drivers snapshot these before their first
// mutation so recovery events can restore the pre-incident baseline.
func (n *Network) Capacity(name string) (egress, ingress unit.Rate, ok bool) {
	h := n.hosts[name]
	if h == nil {
		return 0, 0, false
	}
	return h.Egress, h.Ingress, true
}

// SetCapacity changes a host's port capacities — degraded links,
// background traffic, recovering NICs. Schedulers observe the change on
// their next invocation.
func (n *Network) SetCapacity(name string, egress, ingress unit.Rate) error {
	h := n.hosts[name]
	if h == nil {
		return fmt.Errorf("fabric: unknown host %q", name)
	}
	if egress < 0 || ingress < 0 {
		return fmt.Errorf("fabric: host %q given negative capacity", name)
	}
	h.Egress, h.Ingress = egress, ingress
	n.gen++
	return nil
}

// SetSpineLink rewrites one leaf↔spine link pair's capacities (degraded or
// recovering interior links, or a rack's uplink and downlink).
func (n *Network) SetSpineLink(leaf string, spine int, up, down unit.Rate) error {
	li, ok := n.leafIdx[leaf]
	if !ok {
		return fmt.Errorf("fabric: unknown leaf %q", leaf)
	}
	if spine < 0 || spine >= n.spines {
		return fmt.Errorf("fabric: leaf %q has no spine %d", leaf, spine)
	}
	if up < 0 || down < 0 {
		return fmt.Errorf("fabric: leaf %q spine %d given negative capacity", leaf, spine)
	}
	n.up[li*n.spines+spine].Capacity = up
	n.down[li*n.spines+spine].Capacity = down
	n.gen++
	return nil
}

// Hosts returns all hosts in insertion order.
func (n *Network) Hosts() []*Host {
	out := make([]*Host, 0, len(n.names))
	for _, name := range n.names {
		out = append(out, n.hosts[name])
	}
	return out
}

// Len returns the number of hosts.
func (n *Network) Len() int { return len(n.hosts) }

// LeafOf returns the leaf a host attaches to ("" for core-attached or
// unknown hosts).
func (n *Network) LeafOf(host string) string {
	if li, ok := n.leafOf[host]; ok {
		return n.leaves[li]
	}
	return ""
}

// SpineFor returns the spine index a src→dst flow is pinned to: the 32-bit
// FNV-1a hash of src, a zero byte and dst, stable across runs and processes
// (ECMP with a deterministic hash function). It is computed inline because
// every path lookup pays for it.
func (n *Network) SpineFor(src, dst string) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(src); i++ {
		h = (h ^ uint32(src[i])) * prime32
	}
	h *= prime32 // the separator: h ^ 0 is h
	for i := 0; i < len(dst); i++ {
		h = (h ^ uint32(dst[i])) * prime32
	}
	return int(h % uint32(n.spines))
}

// Request is a flow asking for bandwidth between two hosts. Cap, when
// positive, bounds the rate the flow can use (e.g. the rate that would
// finish it within the current scheduling quantum).
type Request struct {
	ID  string
	Src string
	Dst string
	Cap unit.Rate
}

// capOrInf normalizes a request cap: non-positive means unbounded.
func (r Request) capOrInf() unit.Rate {
	if r.Cap <= 0 {
		return unit.Rate(1e300)
	}
	return r.Cap
}

// FlowLinks implements Fabric: source NIC, destination NIC, then the uplink
// to and downlink from the hashed spine when the endpoints sit on different
// leaves. The order — egress, ingress, uplink, downlink — is load-bearing:
// schedulers accumulate and reserve in FlowLinks order.
func (n *Network) FlowLinks(src, dst string, buf []LinkKey) []LinkKey {
	buf = append(buf, LinkKey{Kind: LinkEgress, Name: src}, LinkKey{Kind: LinkIngress, Name: dst})
	srcLeaf, srcOK := n.leafOf[src]
	dstLeaf, dstOK := n.leafOf[dst]
	if !srcOK || !dstOK || srcLeaf == dstLeaf {
		return buf
	}
	spine := n.SpineFor(src, dst)
	return append(buf, n.up[srcLeaf*n.spines+spine].Key, n.down[dstLeaf*n.spines+spine].Key)
}

// LinkCapacity implements Fabric.
func (n *Network) LinkCapacity(k LinkKey) unit.Rate {
	switch k.Kind {
	case LinkEgress:
		if h := n.hosts[k.Name]; h != nil {
			return h.Egress
		}
	case LinkIngress:
		if h := n.hosts[k.Name]; h != nil {
			return h.Ingress
		}
	case LinkUp:
		if i, ok := n.spineLink[k.Name]; ok {
			return n.up[i].Capacity
		}
	case LinkDown:
		if i, ok := n.spineLink[k.Name]; ok {
			return n.down[i].Capacity
		}
	}
	return 0
}

// Links implements Fabric: every host NIC direction (egress first, then
// ingress, hosts in insertion order) followed by every leaf's spine uplinks
// then downlinks in leaf registration order.
func (n *Network) Links() []Link {
	out := make([]Link, 0, 2*len(n.names)+len(n.up)+len(n.down))
	for _, name := range n.names {
		out = append(out, Link{Key: LinkKey{Kind: LinkEgress, Name: name}, Capacity: n.hosts[name].Egress})
	}
	for _, name := range n.names {
		out = append(out, Link{Key: LinkKey{Kind: LinkIngress, Name: name}, Capacity: n.hosts[name].Ingress})
	}
	return append(append(out, n.up...), n.down...)
}

// Feasible reports whether the given per-flow rates respect every link's
// capacity (within tolerance).
func (n *Network) Feasible(reqs []Request, rates map[string]unit.Rate) error {
	return feasibleLinks(n, reqs, rates)
}

// NewResidual snapshots the network's full capacities.
func (n *Network) NewResidual() *Residual { return NewResidualOf(n) }

// GreedyFill allocates rates to requests strictly in the given order: each
// request receives the most it can (up to its cap) from what earlier
// requests left behind. It is the enforcement primitive for priority-ordered
// schedulers (SRPT, FIFO) and for backfilling MADD leftovers.
func (n *Network) GreedyFill(reqs []Request) (map[string]unit.Rate, error) {
	return greedyFillLinks(n, reqs)
}

// MaxMin computes the max-min fair allocation over the requests via
// progressive filling: repeatedly find the most contended link, give each of
// its unfrozen flows an equal share, freeze them, and recurse on the rest.
// Request caps participate: a flow whose cap is below its fair share is
// frozen at its cap, releasing the difference to others. This is the
// "bandwidth fair sharing" baseline of the paper's Fig. 2.
func (n *Network) MaxMin(reqs []Request) (map[string]unit.Rate, error) {
	return maxMinLinks(n, reqs)
}

// BottleneckTime returns the minimum time needed to ship the given volumes
// between host pairs, i.e. the most loaded link's total volume divided by
// its capacity. This is Varys' Γ for a coflow, used by both MADD variants.
func (n *Network) BottleneckTime(vols []VolumeDemand) (unit.Time, error) {
	return bottleneckTimeLinks(n, vols)
}

// VolumeDemand is a remaining volume between two hosts.
type VolumeDemand struct {
	Src    string
	Dst    string
	Volume unit.Bytes
}
