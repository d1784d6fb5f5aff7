package fabric

import (
	"fmt"

	"echelonflow/internal/unit"
)

// LeafSpine is a native two-tier Clos fabric: hosts attach to leaf switches,
// leaves connect to every spine with individually-capacitated up and down
// links, and each flow is pinned to one spine by a deterministic ECMP-style
// hash of its endpoints. A cross-leaf flow therefore consumes capacity on
// four links — source NIC, srcLeaf→spine uplink, spine→dstLeaf downlink,
// destination NIC — rather than the NIC-plus-rack-pool abstraction of the
// big switch. Intra-leaf flows touch only the two NICs.
//
// Link naming: the uplink from leaf L to spine k is LinkUp "L/sk"; the
// downlink from spine k to leaf L is LinkDown "L/sk". RackOf reports the
// leaf, so rack-aware placement policies treat leaves as racks.
//
// The zero value is not ready for use; call NewLeafSpine.
type LeafSpine struct {
	hosts   map[string]*Host
	names   []string
	leaves  []string       // registration order
	leafIdx map[string]int // leaf → position in leaves
	leafOf  map[string]int // host → position of its leaf
	spines  int
	// Spine links are built once, in AddLeaf, so that the per-flow path
	// lookup formats no names: leaf i's links to spine k are up[i*spines+k]
	// and down[i*spines+k], and spineLink maps their shared name back.
	up, down  []Link
	spineLink map[string]int
	gen       uint64
	topoGen   uint64
}

// NewLeafSpine returns an empty fabric with the given number of spine
// switches (at least 1).
func NewLeafSpine(spines int) (*LeafSpine, error) {
	if spines < 1 {
		return nil, fmt.Errorf("fabric: leaf-spine needs at least 1 spine, got %d", spines)
	}
	return &LeafSpine{
		hosts:     make(map[string]*Host),
		leafIdx:   make(map[string]int),
		leafOf:    make(map[string]int),
		spines:    spines,
		spineLink: make(map[string]int),
	}, nil
}

// Spines returns the spine count.
func (ls *LeafSpine) Spines() int { return ls.spines }

// AddLeaf registers a leaf switch with uniform per-spine link capacities:
// every one of its spine uplinks and downlinks gets upPerSpine/downPerSpine.
func (ls *LeafSpine) AddLeaf(name string, upPerSpine, downPerSpine unit.Rate) error {
	if name == "" {
		return fmt.Errorf("fabric: leaf must have a name")
	}
	if upPerSpine < 0 || downPerSpine < 0 {
		return fmt.Errorf("fabric: leaf %q has negative link capacity", name)
	}
	if _, ok := ls.leafIdx[name]; ok {
		return fmt.Errorf("fabric: duplicate leaf %q", name)
	}
	ls.leafIdx[name] = len(ls.leaves)
	ls.leaves = append(ls.leaves, name)
	for k := 0; k < ls.spines; k++ {
		link := spineLinkName(name, k)
		ls.spineLink[link] = len(ls.up)
		ls.up = append(ls.up, Link{Key: LinkKey{Kind: LinkUp, Name: link}, Capacity: upPerSpine})
		ls.down = append(ls.down, Link{Key: LinkKey{Kind: LinkDown, Name: link}, Capacity: downPerSpine})
	}
	ls.gen++
	ls.topoGen++
	return nil
}

// spineLinkName is the canonical "leaf/spine" link name.
func spineLinkName(leaf string, spine int) string {
	return fmt.Sprintf("%s/s%d", leaf, spine)
}

// AddHost attaches a host to a leaf.
func (ls *LeafSpine) AddHost(name, leaf string, egress, ingress unit.Rate) error {
	if name == "" {
		return fmt.Errorf("fabric: host must have a name")
	}
	if egress < 0 || ingress < 0 {
		return fmt.Errorf("fabric: host %q has negative capacity", name)
	}
	if _, ok := ls.hosts[name]; ok {
		return fmt.Errorf("fabric: duplicate host %q", name)
	}
	li, ok := ls.leafIdx[leaf]
	if !ok {
		return fmt.Errorf("fabric: unknown leaf %q", leaf)
	}
	ls.hosts[name] = &Host{Name: name, Egress: egress, Ingress: ingress}
	ls.names = append(ls.names, name)
	ls.leafOf[name] = li
	ls.gen++
	ls.topoGen++
	return nil
}

// MoveHost re-attaches a host to a different leaf — the placement-sweep
// analogue of Network.ReassignRack. It bumps the topology generation so
// plan caches and delta state keyed on it are discarded.
func (ls *LeafSpine) MoveHost(name, leaf string) error {
	if ls.hosts[name] == nil {
		return fmt.Errorf("fabric: unknown host %q", name)
	}
	li, ok := ls.leafIdx[leaf]
	if !ok {
		return fmt.Errorf("fabric: unknown leaf %q", leaf)
	}
	if ls.leafOf[name] == li {
		return nil
	}
	ls.leafOf[name] = li
	ls.gen++
	ls.topoGen++
	return nil
}

// Generation implements Fabric.
func (ls *LeafSpine) Generation() uint64 { return ls.gen }

// TopoGeneration implements Fabric.
func (ls *LeafSpine) TopoGeneration() uint64 { return ls.topoGen }

// Host implements Fabric.
func (ls *LeafSpine) Host(name string) *Host { return ls.hosts[name] }

// Hosts implements Fabric (insertion order).
func (ls *LeafSpine) Hosts() []*Host {
	out := make([]*Host, 0, len(ls.names))
	for _, name := range ls.names {
		out = append(out, ls.hosts[name])
	}
	return out
}

// Len implements Fabric.
func (ls *LeafSpine) Len() int { return len(ls.hosts) }

// Capacity implements Fabric.
func (ls *LeafSpine) Capacity(name string) (egress, ingress unit.Rate, ok bool) {
	h := ls.hosts[name]
	if h == nil {
		return 0, 0, false
	}
	return h.Egress, h.Ingress, true
}

// SetCapacity implements Fabric.
func (ls *LeafSpine) SetCapacity(name string, egress, ingress unit.Rate) error {
	h := ls.hosts[name]
	if h == nil {
		return fmt.Errorf("fabric: unknown host %q", name)
	}
	if egress < 0 || ingress < 0 {
		return fmt.Errorf("fabric: host %q given negative capacity", name)
	}
	h.Egress, h.Ingress = egress, ingress
	ls.gen++
	return nil
}

// SetSpineLink rewrites one leaf↔spine link pair's capacities (degraded or
// recovering interior links).
func (ls *LeafSpine) SetSpineLink(leaf string, spine int, up, down unit.Rate) error {
	li, ok := ls.leafIdx[leaf]
	if !ok {
		return fmt.Errorf("fabric: unknown leaf %q", leaf)
	}
	if spine < 0 || spine >= ls.spines {
		return fmt.Errorf("fabric: leaf %q has no spine %d", leaf, spine)
	}
	if up < 0 || down < 0 {
		return fmt.Errorf("fabric: leaf %q spine %d given negative capacity", leaf, spine)
	}
	ls.up[li*ls.spines+spine].Capacity = up
	ls.down[li*ls.spines+spine].Capacity = down
	ls.gen++
	return nil
}

// RackOf implements Fabric: the leaf is the host's rack.
func (ls *LeafSpine) RackOf(host string) string { return ls.LeafOf(host) }

// LeafOf returns the leaf a host attaches to ("" for unknown hosts).
func (ls *LeafSpine) LeafOf(host string) string {
	if li, ok := ls.leafOf[host]; ok {
		return ls.leaves[li]
	}
	return ""
}

// Leaves returns leaf names in registration order.
func (ls *LeafSpine) Leaves() []string { return append([]string(nil), ls.leaves...) }

// SpineFor returns the spine index a src→dst flow is pinned to: the 32-bit
// FNV-1a hash of src, a zero byte and dst, stable across runs and processes
// (ECMP with a deterministic hash function). It is computed inline because
// every path lookup pays for it.
func (ls *LeafSpine) SpineFor(src, dst string) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(src); i++ {
		h = (h ^ uint32(src[i])) * prime32
	}
	h *= prime32 // the separator: h ^ 0 is h
	for i := 0; i < len(dst); i++ {
		h = (h ^ uint32(dst[i])) * prime32
	}
	return int(h % uint32(ls.spines))
}

// FlowLinks implements Fabric: source NIC, uplink to the hashed spine,
// downlink from it, destination NIC — the uplink/downlink only when the
// endpoints sit on different leaves. The egress/ingress/up/down order
// mirrors Network.FlowLinks so scheduler arithmetic is comparable across
// backends.
func (ls *LeafSpine) FlowLinks(src, dst string, buf []LinkKey) []LinkKey {
	buf = append(buf, LinkKey{Kind: LinkEgress, Name: src}, LinkKey{Kind: LinkIngress, Name: dst})
	srcLeaf, srcOK := ls.leafOf[src]
	dstLeaf, dstOK := ls.leafOf[dst]
	if !srcOK || !dstOK || srcLeaf == dstLeaf {
		return buf
	}
	spine := ls.SpineFor(src, dst)
	return append(buf, ls.up[srcLeaf*ls.spines+spine].Key, ls.down[dstLeaf*ls.spines+spine].Key)
}

// LinkCapacity implements Fabric.
func (ls *LeafSpine) LinkCapacity(k LinkKey) unit.Rate {
	switch k.Kind {
	case LinkEgress:
		if h := ls.hosts[k.Name]; h != nil {
			return h.Egress
		}
	case LinkIngress:
		if h := ls.hosts[k.Name]; h != nil {
			return h.Ingress
		}
	case LinkUp:
		if i, ok := ls.spineLink[k.Name]; ok {
			return ls.up[i].Capacity
		}
	case LinkDown:
		if i, ok := ls.spineLink[k.Name]; ok {
			return ls.down[i].Capacity
		}
	}
	return 0
}

// Links implements Fabric: host NICs (egress then ingress, insertion order)
// followed by every leaf's spine uplinks then downlinks in leaf registration
// order.
func (ls *LeafSpine) Links() []Link {
	out := make([]Link, 0, 2*len(ls.names)+2*len(ls.leaves)*ls.spines)
	for _, name := range ls.names {
		out = append(out, Link{Key: LinkKey{Kind: LinkEgress, Name: name}, Capacity: ls.hosts[name].Egress})
	}
	for _, name := range ls.names {
		out = append(out, Link{Key: LinkKey{Kind: LinkIngress, Name: name}, Capacity: ls.hosts[name].Ingress})
	}
	return append(append(out, ls.up...), ls.down...)
}

// Feasible implements Fabric.
func (ls *LeafSpine) Feasible(reqs []Request, rates map[string]unit.Rate) error {
	return feasibleLinks(ls, reqs, rates)
}

// GreedyFill implements Fabric.
func (ls *LeafSpine) GreedyFill(reqs []Request) (map[string]unit.Rate, error) {
	return greedyFillLinks(ls, reqs)
}

// MaxMin implements Fabric.
func (ls *LeafSpine) MaxMin(reqs []Request) (map[string]unit.Rate, error) {
	return maxMinLinks(ls, reqs)
}

// BottleneckTime implements Fabric.
func (ls *LeafSpine) BottleneckTime(vols []VolumeDemand) (unit.Time, error) {
	return bottleneckTimeLinks(ls, vols)
}

// NewResidual implements Fabric.
func (ls *LeafSpine) NewResidual() *Residual { return NewResidualOf(ls) }

// NewLeafSpineFromHosts builds a leaf-spine fabric over uniform hosts: the
// named hosts are attached hostsPerLeaf at a time to leaves l0, l1, ... with
// NIC capacity nic in both directions, and each leaf gets `spines` uplinks
// and downlinks sized so the leaf's total core bandwidth is its attached NIC
// bandwidth divided by oversub (oversub 1 = non-blocking, 3 = the classic
// 3:1 oversubscribed pod). It is the scenario-construction helper behind
// the -fabric leafspine CLI flag.
func NewLeafSpineFromHosts(names []string, hostsPerLeaf, spines int, nic unit.Rate, oversub float64) (*LeafSpine, error) {
	if hostsPerLeaf < 1 {
		return nil, fmt.Errorf("fabric: hostsPerLeaf must be >= 1, got %d", hostsPerLeaf)
	}
	if oversub <= 0 {
		return nil, fmt.Errorf("fabric: oversubscription must be positive, got %g", oversub)
	}
	ls, err := NewLeafSpine(spines)
	if err != nil {
		return nil, err
	}
	perSpine := unit.Rate(float64(nic) * float64(hostsPerLeaf) / oversub / float64(spines))
	nLeaves := (len(names) + hostsPerLeaf - 1) / hostsPerLeaf
	for l := 0; l < nLeaves; l++ {
		if err := ls.AddLeaf(fmt.Sprintf("l%d", l), perSpine, perSpine); err != nil {
			return nil, err
		}
	}
	for i, name := range names {
		if err := ls.AddHost(name, fmt.Sprintf("l%d", i/hostsPerLeaf), nic, nic); err != nil {
			return nil, err
		}
	}
	return ls, nil
}
