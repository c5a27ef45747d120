package route

import (
	"testing"

	"fattree/internal/topo"
)

// specLinks counts a fabric's cables from its tuple alone: every node
// below the top contributes its up ports.
func specLinks(g topo.PGFT) int {
	links := g.NumHosts() * g.UpPorts(0)
	for l := 1; l < g.H; l++ {
		links += g.NumSwitches(l) * g.UpPorts(l)
	}
	return links
}

// TestCellWidthDecision: the width is a function of the link count
// alone, 16 bits exactly while the largest cell (2*links) fits them.
func TestCellWidthDecision(t *testing.T) {
	for _, tc := range []struct {
		links int
		wide  bool
	}{
		{0, false}, {1, false},
		{1<<15 - 1, false}, // 2*links+1 = 2^16-1: the largest cell is 65534
		{1 << 15, true},    // 2*links = 2^16 does not fit
		{1 << 20, true},
	} {
		if got := wideCells(tc.links); got != tc.wide {
			t.Errorf("wideCells(%d) = %v, want %v", tc.links, got, tc.wide)
		}
	}
	if got := specLinks(topo.Cluster324); got != len(topo.MustBuild(topo.Cluster324).Links) {
		t.Fatalf("specLinks(Cluster324) = %d, the built fabric has %d", got, len(topo.MustBuild(topo.Cluster324).Links))
	}
	for _, g := range []topo.PGFT{topo.Cluster128, topo.Cluster324, topo.Cluster1728, topo.Cluster1944} {
		if wideCells(specLinks(g)) {
			t.Errorf("%v (%d links) would compile to 32-bit cells: every fabric the paper evaluates fits 16", g, specLinks(g))
		}
	}
	// The 36-port 3-level maximum: 11,664 end-ports, 34,992 cables.
	big, err := topo.RLFT3(18, 36)
	if err != nil {
		t.Fatal(err)
	}
	if big.NumHosts() != 11664 || specLinks(big) != 34992 || !wideCells(specLinks(big)) {
		t.Fatalf("%v: %d hosts, %d links, wide %v: want 11664, 34992, true", big, big.NumHosts(), specLinks(big), wideCells(specLinks(big)))
	}

	// And the arena does what the decision says, whichever way it went:
	// on tables without a closed form, which store every column.
	tp := topo.MustBuild(topo.Cluster128)
	narrow, err := Compile(MinHopRandom(tp, 1))
	if err != nil {
		t.Fatal(err)
	}
	if narrow.c32 != nil || len(narrow.c16) != narrow.NumEntries() || narrow.NumEntries() == 0 {
		t.Fatal("Cluster128 compiled to something other than one 16-bit arena")
	}
	ForceWideCells(t)
	wide, err := Compile(MinHopRandom(tp, 1))
	if err != nil {
		t.Fatal(err)
	}
	if wide.c16 != nil || len(wide.c32) != narrow.NumEntries() {
		t.Fatal("a forced-wide compile did not produce one 32-bit arena of the same cell count")
	}
	for i, e := range wide.c32 {
		if uint32(narrow.c16[i]) != e {
			t.Fatalf("cell %d: %d at 16 bits, %d at 32", i, narrow.c16[i], e)
		}
	}
	// Repatch keeps the receiver's width, whatever a fresh build would
	// pick now — also over a closed form, where the receiver stores no
	// cell at all.
	forceWide.Store(false)
	formNarrow, err := Compile(DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	forceWide.Store(true)
	for _, c := range []*Compiled{narrow, wide, formNarrow} {
		p, err := c.Repatch(DModK(tp), []int{3})
		if err != nil {
			t.Fatal(err)
		}
		if (p.c32 != nil) != (c.c32 != nil) || (p.c16 != nil) != (c.c16 != nil) {
			t.Fatalf("Repatch turned a wide=%v arena into a wide=%v one", c.c32 != nil, p.c32 != nil)
		}
		if want := max(c.NumEntries(), len(c.rep)*c.stride); p.NumEntries() != want {
			t.Fatalf("Repatch of one column stores %d cells, want %d", p.NumEntries(), want)
		}
	}
}
