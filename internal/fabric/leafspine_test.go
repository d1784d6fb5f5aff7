package fabric

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"echelonflow/internal/unit"
)

// SpineFor hashes inline; ECMP pinning — and with it every recorded
// allocation — holds only while it returns what hash/fnv returns.
func TestSpineForMatchesFNV1a(t *testing.T) {
	reference := func(src, dst string, spines int) int {
		h := fnv.New32a()
		h.Write([]byte(src))
		h.Write([]byte{0})
		h.Write([]byte(dst))
		return int(h.Sum32() % uint32(spines))
	}
	pairs := [][2]string{{"", ""}, {"", "h0"}, {"h0", ""}, {"h0", "h0"}, {"a\x00", "b"}, {"a", "\x00b"},
		{"wörker-0", "ワーカー1"}, {"\xff\xfe", "\x80"}}
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("abchw-/0123456789é世\x00")
	for len(pairs) < 1200 {
		var p [2]string
		for e := range p {
			name := make([]rune, rng.Intn(12))
			for i := range name {
				name[i] = alphabet[rng.Intn(len(alphabet))]
			}
			p[e] = string(name)
		}
		pairs = append(pairs, p)
	}
	for _, spines := range []int{1, 2, 3, 4, 7, 64} {
		ls, err := NewLeafSpine(spines)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if got, want := ls.SpineFor(p[0], p[1]), reference(p[0], p[1], spines); got != want {
				t.Fatalf("SpineFor(%q, %q) with %d spines = %d, hash/fnv gives %d", p[0], p[1], spines, got, want)
			}
		}
	}
}

// The spine-link keys are built once, in AddLeaf; they must stay the
// "leaf/sN" names FlowLinks used to format per call, whatever moves or
// changes capacity afterwards.
func TestLeafSpineLinkKeysKeepTheirFormat(t *testing.T) {
	const spines = 3
	ls, err := NewLeafSpine(spines)
	if err != nil {
		t.Fatal(err)
	}
	leaves := []string{"l0", "rack/b", "l10"}
	for i, leaf := range leaves {
		if err := ls.AddLeaf(leaf, unit.Rate(10+i), unit.Rate(20+i)); err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 2; h++ {
			if err := ls.AddHost(fmt.Sprintf("h%d%d", i, h), leaf, 1, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		links := ls.Links()
		if want := 2*ls.Len() + 2*len(leaves)*spines; len(links) != want {
			t.Fatalf("%s: %d links, want %d", when, len(links), want)
		}
		spineLinks := links[2*ls.Len():]
		for i, l := range spineLinks {
			kind := LinkUp
			if i >= len(leaves)*spines {
				kind = LinkDown
			}
			leaf, spine := leaves[i%(len(leaves)*spines)/spines], i%spines
			if want := (LinkKey{Kind: kind, Name: fmt.Sprintf("%s/s%d", leaf, spine)}); l.Key != want {
				t.Errorf("%s: Links()[%d] = %v, want %v", when, 2*ls.Len()+i, l.Key, want)
			}
			if got := ls.LinkCapacity(l.Key); got != l.Capacity {
				t.Errorf("%s: LinkCapacity(%v) = %v, Links says %v", when, l.Key, got, l.Capacity)
			}
		}
		for _, src := range ls.Hosts() {
			for _, dst := range ls.Hosts() {
				path := ls.FlowLinks(src.Name, dst.Name, nil)
				want := []LinkKey{{Kind: LinkEgress, Name: src.Name}, {Kind: LinkIngress, Name: dst.Name}}
				if sl, dl := ls.LeafOf(src.Name), ls.LeafOf(dst.Name); sl != dl {
					spine := ls.SpineFor(src.Name, dst.Name)
					want = append(want,
						LinkKey{Kind: LinkUp, Name: fmt.Sprintf("%s/s%d", sl, spine)},
						LinkKey{Kind: LinkDown, Name: fmt.Sprintf("%s/s%d", dl, spine)})
				}
				if fmt.Sprint(path) != fmt.Sprint(want) {
					t.Errorf("%s: FlowLinks(%s, %s) = %v, want %v", when, src.Name, dst.Name, path, want)
				}
			}
		}
	}
	check("as built")
	if err := ls.MoveHost("h00", "l10"); err != nil {
		t.Fatal(err)
	}
	if got := ls.LeafOf("h00"); got != "l10" {
		t.Errorf("LeafOf(h00) after MoveHost = %q, want l10", got)
	}
	check("after MoveHost")
	if err := ls.SetSpineLink("rack/b", 2, 0.5, 0.25); err != nil {
		t.Fatal(err)
	}
	if up, down := ls.LinkCapacity(LinkKey{Kind: LinkUp, Name: "rack/b/s2"}), ls.LinkCapacity(LinkKey{Kind: LinkDown, Name: "rack/b/s2"}); up != 0.5 || down != 0.25 {
		t.Errorf("rack/b/s2 after SetSpineLink = %v up, %v down, want 0.5, 0.25", up, down)
	}
	if other := ls.LinkCapacity(LinkKey{Kind: LinkUp, Name: "rack/b/s1"}); other != 11 {
		t.Errorf("rack/b/s1 uplink = %v, want its original 11", other)
	}
	check("after SetSpineLink")
	if got := ls.FlowLinks("h00", "nobody", nil); len(got) != 2 {
		t.Errorf("FlowLinks to an unknown host = %v, want the two NIC keys only", got)
	}
}
