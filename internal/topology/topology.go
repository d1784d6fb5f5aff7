// Package topology models the multi-tenant GPU cluster EchelonFlow targets
// (§5): hosts with several GPUs behind one NIC, where jobs receive GPU
// slots that may be fragmented across hosts. Placement produces the worker
// names a workload compiler consumes and the fabric the flows contend on.
//
// Each GPU slot appears as its own fabric endpoint; a host's NIC capacity
// is split evenly across its GPUs. This static split is a conservative
// approximation of NIC sharing between co-located workers — it preserves
// the property the paper cares about (co-located tenants contend for host
// bandwidth) without modelling per-packet multiplexing.
package topology

import (
	"fmt"
	"sort"

	"echelonflow/internal/fabric"
	"echelonflow/internal/unit"
)

// Strategy selects how Place picks GPU slots.
type Strategy int

const (
	// Packed fills hosts in order, minimizing the number of hosts a job
	// spans (and so its cross-host traffic).
	Packed Strategy = iota
	// Spread round-robins across the emptiest hosts, the
	// fragmentation-inducing pattern of busy clusters.
	Spread
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Packed:
		return "packed"
	case Spread:
		return "spread"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

type host struct {
	name    string
	gpus    int
	egress  unit.Rate
	ingress unit.Rate
	used    map[int]string // gpu index -> owning job
}

// Cluster is a set of multi-GPU hosts.
//
// The zero value is not ready for use; call New.
type Cluster struct {
	hosts map[string]*host
	names []string
}

// New returns an empty cluster.
func New() *Cluster {
	return &Cluster{hosts: make(map[string]*host)}
}

// AddHost registers a host with the given GPU count and NIC capacities.
func (c *Cluster) AddHost(name string, gpus int, egress, ingress unit.Rate) error {
	if name == "" {
		return fmt.Errorf("topology: host must have a name")
	}
	if gpus < 1 {
		return fmt.Errorf("topology: host %q needs >=1 GPU", name)
	}
	if egress <= 0 || ingress <= 0 {
		return fmt.Errorf("topology: host %q needs positive NIC capacity", name)
	}
	if _, ok := c.hosts[name]; ok {
		return fmt.Errorf("topology: duplicate host %q", name)
	}
	c.hosts[name] = &host{name: name, gpus: gpus, egress: egress, ingress: ingress, used: make(map[int]string)}
	c.names = append(c.names, name)
	return nil
}

// SlotName is the fabric endpoint name of a GPU slot.
func SlotName(hostName string, gpu int) string {
	return fmt.Sprintf("%s/g%d", hostName, gpu)
}

// Fabric builds the network the cluster exposes: one endpoint per GPU slot,
// NIC capacity divided evenly among the host's GPUs.
func (c *Cluster) Fabric() *fabric.Network {
	net := fabric.NewNetwork()
	for _, name := range c.names {
		h := c.hosts[name]
		for g := 0; g < h.gpus; g++ {
			// Per-slot share of the host NIC.
			eg := h.egress / unit.Rate(h.gpus)
			in := h.ingress / unit.Rate(h.gpus)
			if err := net.AddHost(SlotName(name, g), "", eg, in); err != nil {
				// Unreachable: slot names are unique by construction.
				panic(err)
			}
		}
	}
	return net
}

// Placement records the GPU slots assigned to a job, in worker order.
type Placement struct {
	Job   string
	Slots []string
}

// FreeGPUs returns the total number of unassigned GPU slots.
func (c *Cluster) FreeGPUs() int {
	n := 0
	for _, h := range c.hosts {
		n += h.gpus - len(h.used)
	}
	return n
}

// Place assigns n GPU slots to a job. Packed fills hosts in registration
// order; Spread repeatedly takes a slot from the host with the most free
// GPUs (ties by name). It fails without side effects if fewer than n slots
// are free or the job already has a placement.
func (c *Cluster) Place(job string, n int, strategy Strategy) (Placement, error) {
	if job == "" {
		return Placement{}, fmt.Errorf("topology: job must have a name")
	}
	if n < 1 {
		return Placement{}, fmt.Errorf("topology: job %q needs >=1 GPU", job)
	}
	for _, h := range c.hosts {
		for _, owner := range h.used {
			if owner == job {
				return Placement{}, fmt.Errorf("topology: job %q already placed", job)
			}
		}
	}
	if c.FreeGPUs() < n {
		return Placement{}, fmt.Errorf("topology: job %q needs %d GPUs, only %d free", job, n, c.FreeGPUs())
	}
	var slots []string
	take := func(h *host) bool {
		for g := 0; g < h.gpus; g++ {
			if _, busy := h.used[g]; !busy {
				h.used[g] = job
				slots = append(slots, SlotName(h.name, g))
				return true
			}
		}
		return false
	}
	switch strategy {
	case Packed:
		for _, name := range c.names {
			for len(slots) < n && take(c.hosts[name]) {
			}
			if len(slots) == n {
				break
			}
		}
	case Spread:
		for len(slots) < n {
			var best *host
			for _, name := range c.names {
				h := c.hosts[name]
				free := h.gpus - len(h.used)
				if free == 0 {
					continue
				}
				if best == nil || free > best.gpus-len(best.used) {
					best = h
				}
			}
			take(best)
		}
	default:
		return Placement{}, fmt.Errorf("topology: unknown strategy %v", strategy)
	}
	return Placement{Job: job, Slots: slots}, nil
}

// Release frees every slot a job holds.
func (c *Cluster) Release(job string) {
	for _, h := range c.hosts {
		for g, owner := range h.used {
			if owner == job {
				delete(h.used, g)
			}
		}
	}
}

// Fragmentation returns how many hosts a placement spans beyond the minimum
// possible for its size (0 = as packed as the cluster allows).
func (c *Cluster) Fragmentation(p Placement) int {
	hostsUsed := make(map[string]bool)
	for _, s := range p.Slots {
		for _, name := range c.names {
			h := c.hosts[name]
			for g := 0; g < h.gpus; g++ {
				if SlotName(name, g) == s {
					hostsUsed[name] = true
				}
			}
		}
	}
	// Minimum hosts: pack slots into the largest hosts first.
	sizes := make([]int, 0, len(c.names))
	for _, name := range c.names {
		sizes = append(sizes, c.hosts[name].gpus)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	need := len(p.Slots)
	minHosts := 0
	for _, sz := range sizes {
		if need <= 0 {
			break
		}
		need -= sz
		minHosts++
	}
	return len(hostsUsed) - minHosts
}
