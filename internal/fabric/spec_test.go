package fabric

import (
	"testing"

	"echelonflow/internal/unit"
)

func TestParseSpec(t *testing.T) {
	const unknownBackend = `fabric: unknown backend "extern" (want bigswitch or leafspine[:opts])`
	cases := []struct {
		in   string
		want string
		err  bool
		msg  string // the exact error, where the case pins it
	}{
		{in: "bigswitch", want: "bigswitch"},
		{in: "", want: "bigswitch"},
		{in: "leafspine", want: "leafspine:hosts=4,spines=2,oversub=3"},
		{in: "leafspine:hosts=2,spines=4,oversub=1", want: "leafspine:hosts=2,spines=4,oversub=1"},
		{in: "leafspine:oversub=1.5", want: "leafspine:hosts=4,spines=2,oversub=1.5"},
		{in: "bigswitch:x", err: true},
		{in: "leafspine:hosts=0", err: true},
		{in: "leafspine:spines=-1", err: true},
		{in: "leafspine:oversub=0", err: true},
		{in: "leafspine:color=blue", err: true},
		{in: "torus", err: true},
		// extern:<cmd> names no backend; it is refused like any other.
		{in: "extern:timing-model -scale 2", err: true, msg: unknownBackend},
		{in: "extern:", err: true, msg: unknownBackend},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %v", c.in, sp)
			} else if c.msg != "" && err.Error() != c.msg {
				t.Errorf("ParseSpec(%q): error %q, want %q", c.in, err, c.msg)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if sp.String() != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, sp.String(), c.want)
		}
	}
}

func TestSpecBuildLeafSpineGeometry(t *testing.T) {
	sp, err := ParseSpec("leafspine:hosts=2,spines=2,oversub=4")
	if err != nil {
		t.Fatal(err)
	}
	hosts := []HostCap{
		{Name: "a", Egress: 8, Ingress: 8},
		{Name: "b", Egress: 8, Ingress: 8},
		{Name: "c", Egress: 4, Ingress: 2},
	}
	f, err := sp.Build(hosts)
	if err != nil {
		t.Fatal(err)
	}
	ls := f.(*Network)
	if got := ls.LeafOf("a"); got != "l0" {
		t.Errorf("LeafOf(a) = %q, want l0", got)
	}
	if got := ls.LeafOf("c"); got != "l1" {
		t.Errorf("LeafOf(c) = %q, want l1", got)
	}
	// Leaf l0 attaches 16 B/s of egress NICs; 4:1 oversub over 2 spines
	// leaves 2 B/s per uplink. Leaf l1's lone host gives 0.5 up, 0.25 down.
	if got := ls.LinkCapacity(LinkKey{Kind: LinkUp, Name: spineLinkName("l0", 0)}); got != unit.Rate(2) {
		t.Errorf("l0 uplink = %v, want 2", got)
	}
	if got := ls.LinkCapacity(LinkKey{Kind: LinkUp, Name: spineLinkName("l1", 1)}); got != unit.Rate(0.5) {
		t.Errorf("l1 uplink = %v, want 0.5", got)
	}
	if got := ls.LinkCapacity(LinkKey{Kind: LinkDown, Name: spineLinkName("l1", 0)}); got != unit.Rate(0.25) {
		t.Errorf("l1 downlink = %v, want 0.25", got)
	}
}

func TestSpecBuildBigSwitch(t *testing.T) {
	sp, err := ParseSpec("bigswitch")
	if err != nil {
		t.Fatal(err)
	}
	f, err := sp.Build([]HostCap{{Name: "a", Egress: 3, Ingress: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*Network); !ok {
		t.Fatalf("bigswitch built %T", f)
	}
	eg, in, ok := f.Capacity("a")
	if !ok || eg != 3 || in != 5 {
		t.Errorf("Capacity(a) = %v,%v,%v", eg, in, ok)
	}
}
