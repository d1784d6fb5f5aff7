package fabric

import (
	"fmt"

	"echelonflow/internal/unit"
)

// LinkKind classifies one direction of one capacity pool in a fabric. The
// kinds are distinct namespaces: an egress link named "h0" and an ingress
// link named "h0" are different pools.
type LinkKind uint8

const (
	// LinkEgress is a host's outbound NIC (name = host).
	LinkEgress LinkKind = iota
	// LinkIngress is a host's inbound NIC (name = host).
	LinkIngress
	// LinkUp carries traffic from a leaf toward a spine (name = "leaf/sN").
	LinkUp
	// LinkDown carries traffic from a spine toward a leaf (name = "leaf/sN").
	LinkDown
)

// String names the kind for error messages and traces.
func (k LinkKind) String() string {
	switch k {
	case LinkEgress:
		return "egress"
	case LinkIngress:
		return "ingress"
	case LinkUp:
		return "uplink"
	case LinkDown:
		return "downlink"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// LinkKey identifies one link. Two flows interact in scheduling exactly when
// they share a key, which is what makes the delta scheduler's port-footprint
// closure exact on every backend.
type LinkKey struct {
	Kind LinkKind
	Name string
}

// String formats a key for error messages.
func (k LinkKey) String() string { return k.Kind.String() + ":" + k.Name }

// Link is a key with its current capacity.
type Link struct {
	Key      LinkKey
	Capacity unit.Rate
}

// Fabric is the scheduling abstraction over a network model: hosts with
// addressable port capacities, plus the full set of capacity-constrained
// links and the per-flow path over them. The native Network implements it.
//
// Contract: FlowLinks must be deterministic in (src, dst, topology) and must
// return every link a src→dst flow consumes capacity on, host NICs included,
// in a stable order. Links must enumerate every link FlowLinks can return,
// in a deterministic order, grouped so that all LinkEgress keys precede all
// LinkIngress keys (Feasible reports violations in Links order). Generation
// must change on every capacity or topology mutation, so schedulers can key
// caches on it.
type Fabric interface {
	// Generation counts every mutation (topology or capacity).
	Generation() uint64
	// Host returns the named host, or nil.
	Host(name string) *Host
	// Hosts returns all hosts in a deterministic (insertion) order.
	Hosts() []*Host
	// Len returns the number of hosts.
	Len() int
	// Capacity reports a host's NIC capacities; ok is false for unknown hosts.
	Capacity(name string) (egress, ingress unit.Rate, ok bool)
	// SetCapacity rewrites a host's NIC capacities (faults, recovery).
	SetCapacity(name string, egress, ingress unit.Rate) error
	// LeafOf names the leaf (rack) a host attaches to, or "" when it
	// attaches directly to the core.
	LeafOf(host string) string
	// FlowLinks appends the links a src→dst flow traverses to buf and
	// returns it. Callers reuse buf across calls to keep hot paths
	// allocation-free.
	FlowLinks(src, dst string, buf []LinkKey) []LinkKey
	// LinkCapacity returns a link's current capacity (0 for unknown keys).
	LinkCapacity(k LinkKey) unit.Rate
	// Links enumerates every capacity-constrained link.
	Links() []Link
	// Feasible verifies per-flow rates respect every link's capacity.
	Feasible(reqs []Request, rates map[string]unit.Rate) error
	// GreedyFill allocates requests strictly in order against residuals.
	GreedyFill(reqs []Request) (map[string]unit.Rate, error)
	// MaxMin computes the max-min fair allocation via progressive filling.
	MaxMin(reqs []Request) (map[string]unit.Rate, error)
	// BottleneckTime is the most loaded link's volume over capacity (Varys'
	// Γ), the minimum time to ship the volumes.
	BottleneckTime(vols []VolumeDemand) (unit.Time, error)
	// NewResidual snapshots full link capacities for an allocation pass.
	NewResidual() *Residual
}

// checkEndpointsOf verifies both endpoints of every request exist and differ.
func checkEndpointsOf(f Fabric, reqs []Request) error {
	for _, r := range reqs {
		if f.Host(r.Src) == nil {
			return fmt.Errorf("fabric: request %q: unknown src host %q", r.ID, r.Src)
		}
		if f.Host(r.Dst) == nil {
			return fmt.Errorf("fabric: request %q: unknown dst host %q", r.ID, r.Dst)
		}
		if r.Src == r.Dst {
			return fmt.Errorf("fabric: request %q: src == dst (%s)", r.ID, r.Src)
		}
	}
	return nil
}

// oversubscribedError phrases a link violation the way the big-switch model
// always has, so shrunk repros and tests keep their messages.
func oversubscribedError(k LinkKey, used, cap unit.Rate) error {
	switch k.Kind {
	case LinkEgress:
		return fmt.Errorf("fabric: egress of %q oversubscribed: %v > %v", k.Name, used, cap)
	case LinkIngress:
		return fmt.Errorf("fabric: ingress of %q oversubscribed: %v > %v", k.Name, used, cap)
	case LinkUp:
		return fmt.Errorf("fabric: uplink %q oversubscribed: %v > %v", k.Name, used, cap)
	case LinkDown:
		return fmt.Errorf("fabric: downlink %q oversubscribed: %v > %v", k.Name, used, cap)
	default:
		return fmt.Errorf("fabric: link %q oversubscribed: %v > %v", k, used, cap)
	}
}

// feasibleLinks is the shared Feasible implementation: accumulate per-link
// usage in request order, then check links in the backend's canonical Links
// order (deterministic, egress first — matching the historical big-switch
// check order).
func feasibleLinks(f Fabric, reqs []Request, rates map[string]unit.Rate) error {
	if err := checkEndpointsOf(f, reqs); err != nil {
		return err
	}
	used := make(map[LinkKey]unit.Rate, 2*len(reqs))
	var buf []LinkKey
	for _, r := range reqs {
		rt := rates[r.ID]
		if rt < 0 {
			return fmt.Errorf("fabric: flow %q has negative rate %v", r.ID, rt)
		}
		buf = f.FlowLinks(r.Src, r.Dst, buf[:0])
		for _, k := range buf {
			used[k] += rt
		}
	}
	const tol = 1e-6
	for _, l := range f.Links() {
		if u, ok := used[l.Key]; ok && float64(u) > float64(l.Capacity)+tol {
			return oversubscribedError(l.Key, u, l.Capacity)
		}
	}
	return nil
}

// greedyFillLinks is the shared GreedyFill implementation.
func greedyFillLinks(f Fabric, reqs []Request) (map[string]unit.Rate, error) {
	if err := checkEndpointsOf(f, reqs); err != nil {
		return nil, err
	}
	res := f.NewResidual()
	rates := make(map[string]unit.Rate, len(reqs))
	for _, r := range reqs {
		rate := unit.MinRate(res.Available(r.Src, r.Dst), r.capOrInf())
		rates[r.ID] = rate
		res.Take(r.Src, r.Dst, rate)
	}
	return rates, nil
}

// maxMinLinks is the shared MaxMin implementation: progressive filling over
// the per-link residuals. See Network.MaxMin for the algorithm narrative;
// this is the same arithmetic with the four kind-specific maps folded into
// one link-keyed map, which leaves every share, freeze and take bit-equal on
// the big switch.
func maxMinLinks(f Fabric, reqs []Request) (map[string]unit.Rate, error) {
	if err := checkEndpointsOf(f, reqs); err != nil {
		return nil, err
	}
	rates := make(map[string]unit.Rate, len(reqs))
	frozen := make(map[string]bool, len(reqs))
	res := f.NewResidual()

	// Per-request link lists, computed once.
	links := make([][]LinkKey, len(reqs))
	for i, r := range reqs {
		links[i] = f.FlowLinks(r.Src, r.Dst, nil)
	}

	remaining := len(reqs)
	for remaining > 0 {
		// Count unfrozen flows per link.
		count := make(map[LinkKey]int)
		for i, r := range reqs {
			if frozen[r.ID] {
				continue
			}
			for _, k := range links[i] {
				count[k]++
			}
		}
		// The bottleneck share is the minimum per-flow share over all links.
		share := unit.Rate(1e300)
		for k, c := range count {
			if s := res.free[k] / unit.Rate(c); s < share {
				share = s
			}
		}
		// Any flow capped below the bottleneck share freezes at its cap.
		minCap := unit.Rate(1e300)
		for _, r := range reqs {
			if !frozen[r.ID] && r.capOrInf() < minCap {
				minCap = r.capOrInf()
			}
		}
		if minCap < share {
			for _, r := range reqs {
				if frozen[r.ID] || r.capOrInf() != minCap {
					continue
				}
				rates[r.ID] = minCap
				res.Take(r.Src, r.Dst, minCap)
				frozen[r.ID] = true
				remaining--
			}
			continue
		}
		// Identify the bottleneck links from the pre-iteration residuals,
		// then freeze every unfrozen flow crossing one of them at the share.
		// (Deciding and taking in one pass would let intra-pass residual
		// updates freeze non-bottlenecked flows prematurely.)
		bottleneck := make(map[LinkKey]bool)
		tol := unit.Rate(unit.Eps) * unit.MaxRate(1, share)
		for k, c := range count {
			if res.free[k]/unit.Rate(c) <= share+tol {
				bottleneck[k] = true
			}
		}
		progressed := false
		for i, r := range reqs {
			if frozen[r.ID] {
				continue
			}
			onBottleneck := false
			for _, k := range links[i] {
				if bottleneck[k] {
					onBottleneck = true
					break
				}
			}
			if onBottleneck {
				rates[r.ID] = share
				res.Take(r.Src, r.Dst, share)
				frozen[r.ID] = true
				remaining--
				progressed = true
			}
		}
		if !progressed {
			// Should be unreachable; guard against float pathologies.
			for _, r := range reqs {
				if !frozen[r.ID] {
					rates[r.ID] = share
					res.Take(r.Src, r.Dst, share)
					frozen[r.ID] = true
					remaining--
				}
			}
		}
	}
	return rates, nil
}

// bottleneckTimeLinks is the shared BottleneckTime implementation.
func bottleneckTimeLinks(f Fabric, vols []VolumeDemand) (unit.Time, error) {
	acc := make(map[LinkKey]unit.Bytes, 2*len(vols))
	var buf []LinkKey
	for _, v := range vols {
		if f.Host(v.Src) == nil || f.Host(v.Dst) == nil {
			return 0, fmt.Errorf("fabric: volume demand references unknown host (%s→%s)", v.Src, v.Dst)
		}
		buf = f.FlowLinks(v.Src, v.Dst, buf[:0])
		for _, k := range buf {
			acc[k] += v.Volume
		}
	}
	var t unit.Time
	for k, vol := range acc {
		t = unit.MaxTime(t, vol.At(f.LinkCapacity(k)))
	}
	return t, nil
}

// Residual tracks remaining link capacity during an allocation pass. It
// works over any Fabric: Available and Take resolve a flow's links through
// the backend's FlowLinks.
type Residual struct {
	f    Fabric
	free map[LinkKey]unit.Rate
	buf  []LinkKey
}

// NewResidualOf snapshots a fabric's full link capacities.
func NewResidualOf(f Fabric) *Residual {
	links := f.Links()
	r := &Residual{f: f, free: make(map[LinkKey]unit.Rate, len(links))}
	for _, l := range links {
		r.free[l.Key] = l.Capacity
	}
	return r
}

// Free returns the remaining capacity of one link (0 for unknown keys).
func (r *Residual) Free(k LinkKey) unit.Rate { return r.free[k] }

// Available returns the largest rate a src→dst flow could still use: the
// minimum residual over every link on its path.
func (r *Residual) Available(src, dst string) unit.Rate {
	r.buf = r.f.FlowLinks(src, dst, r.buf[:0])
	a := unit.Rate(1e300)
	for _, k := range r.buf {
		a = unit.MinRate(a, r.free[k])
	}
	if a < 0 {
		return 0
	}
	return a
}

// Take consumes rate on every link the flow touches. Taking more than
// available clamps the residual at zero (callers should only Take what
// Available allowed).
func (r *Residual) Take(src, dst string, rate unit.Rate) {
	r.buf = r.f.FlowLinks(src, dst, r.buf[:0])
	for _, k := range r.buf {
		r.free[k] -= rate
		if r.free[k] < 0 {
			r.free[k] = 0
		}
	}
}
