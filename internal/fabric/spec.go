package fabric

import (
	"fmt"
	"strconv"
	"strings"

	"echelonflow/internal/unit"
)

// HostCap is one host's NIC specification handed to Spec.Build — the common
// denominator the CLI front-ends (uniform -cap hosts, heterogeneous -host
// specs, generated scenarios) all reduce to.
type HostCap struct {
	Name    string
	Egress  unit.Rate
	Ingress unit.Rate
}

// Spec is a parsed -fabric flag value: which backend to build and its
// geometry. The grammar shared by echelon-sim, echelon-coordinator and
// echelon-check is
//
//	bigswitch                          the classic hosts-only fluid fabric
//	leafspine                          2-spine Clos, 4 hosts/leaf, 3:1 oversub
//	leafspine:hosts=2,spines=4,oversub=1
//	leafspine:hosts=4,spines=1,oversub=2
//	                                   racks of 4: one-spine leaves, 2:1 uplinks
type Spec struct {
	Kind string // "bigswitch" | "leafspine"

	// Leaf-spine geometry (Kind "leafspine").
	HostsPerLeaf int
	Spines       int
	Oversub      float64
}

// ParseSpec parses a -fabric flag value.
func ParseSpec(s string) (*Spec, error) {
	kind, rest, hasRest := strings.Cut(s, ":")
	switch kind {
	case "", "bigswitch":
		if hasRest {
			return nil, fmt.Errorf("fabric: bigswitch takes no options, got %q", s)
		}
		return &Spec{Kind: "bigswitch"}, nil
	case "leafspine":
		sp := &Spec{Kind: "leafspine", HostsPerLeaf: 4, Spines: 2, Oversub: 3}
		if !hasRest || rest == "" {
			return sp, nil
		}
		for _, opt := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("fabric: leafspine option %q: want key=value", opt)
			}
			switch key {
			case "hosts":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("fabric: leafspine hosts=%q: want a positive integer", val)
				}
				sp.HostsPerLeaf = n
			case "spines":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("fabric: leafspine spines=%q: want a positive integer", val)
				}
				sp.Spines = n
			case "oversub":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil || f <= 0 {
					return nil, fmt.Errorf("fabric: leafspine oversub=%q: want a positive ratio", val)
				}
				sp.Oversub = f
			default:
				return nil, fmt.Errorf("fabric: unknown leafspine option %q (want hosts, spines or oversub)", key)
			}
		}
		return sp, nil
	default:
		return nil, fmt.Errorf("fabric: unknown backend %q (want bigswitch or leafspine[:opts])", kind)
	}
}

// String renders the spec back in flag syntax.
func (sp *Spec) String() string {
	switch sp.Kind {
	case "leafspine":
		return fmt.Sprintf("leafspine:hosts=%d,spines=%d,oversub=%g", sp.HostsPerLeaf, sp.Spines, sp.Oversub)
	default:
		return sp.Kind
	}
}

// Build constructs the selected backend over the given hosts. A big switch
// attaches every host to the core; a leaf-spine fabric attaches hosts
// HostsPerLeaf at a time to leaves l0, l1, ... in the order given, sizing
// each leaf's per-spine links so the leaf's core bandwidth is its attached
// NIC bandwidth divided by Oversub (per direction, so heterogeneous NICs are
// respected).
func (sp *Spec) Build(hosts []HostCap) (Fabric, error) {
	switch sp.Kind {
	case "bigswitch":
		n := NewNetwork()
		for _, h := range hosts {
			if err := n.AddHost(h.Name, "", h.Egress, h.Ingress); err != nil {
				return nil, err
			}
		}
		return n, nil
	case "leafspine":
		ls, err := NewLeafSpine(sp.Spines)
		if err != nil {
			return nil, err
		}
		nLeaves := (len(hosts) + sp.HostsPerLeaf - 1) / sp.HostsPerLeaf
		for l := 0; l < nLeaves; l++ {
			var up, down unit.Rate
			for i := l * sp.HostsPerLeaf; i < len(hosts) && i < (l+1)*sp.HostsPerLeaf; i++ {
				up += hosts[i].Egress
				down += hosts[i].Ingress
			}
			up = unit.Rate(float64(up) / sp.Oversub / float64(sp.Spines))
			down = unit.Rate(float64(down) / sp.Oversub / float64(sp.Spines))
			if err := ls.AddLeaf(fmt.Sprintf("l%d", l), up, down); err != nil {
				return nil, err
			}
		}
		for i, h := range hosts {
			if err := ls.AddHost(h.Name, fmt.Sprintf("l%d", i/sp.HostsPerLeaf), h.Egress, h.Ingress); err != nil {
				return nil, err
			}
		}
		return ls, nil
	default:
		return nil, fmt.Errorf("fabric: unknown backend %q", sp.Kind)
	}
}
