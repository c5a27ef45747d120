package route

import (
	"slices"
	"strings"
	"testing"

	"fattree/internal/topo"
)

var compiledTopos = []topo.PGFT{
	topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}),          // Figure 1 tree, 16 hosts
	topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2}), // 3-level, 64 hosts
	topo.Cluster128,
}

// pathOfHops packs a Trace result for comparison against PackedPath.
func pathOfHops(hops []Hop) []PathEntry {
	out := make([]PathEntry, len(hops))
	for i, h := range hops {
		out[i] = PackEntry(h.Link, h.Up)
	}
	return out
}

func TestCompiledMatchesTraceAllPairs(t *testing.T) {
	for _, g := range compiledTopos {
		tp := topo.MustBuild(g)
		for _, lft := range []*LFT{DModK(tp), DModKNaive(tp), MinHopRandom(tp, 3)} {
			c, err := Compile(lft)
			if err != nil {
				t.Fatalf("%v %s: %v", g, lft.Name, err)
			}
			n := tp.NumHosts()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					got, err := c.PackedPath(src, dst)
					if err != nil {
						t.Fatalf("%v %s: %v", g, lft.Name, err)
					}
					if src == dst {
						if len(got) != 0 {
							t.Fatalf("%v %s: self pair %d has %d hops", g, lft.Name, src, len(got))
						}
						continue
					}
					hops, err := lft.Trace(src, dst)
					if err != nil {
						t.Fatalf("%v %s: %v", g, lft.Name, err)
					}
					want := pathOfHops(hops)
					if len(got) != len(want) {
						t.Fatalf("%v %s %d->%d: %d hops, want %d", g, lft.Name, src, dst, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v %s %d->%d hop %d: link %d up %v, want link %d up %v",
								g, lft.Name, src, dst, i,
								EntryLink(got[i]), EntryUp(got[i]), EntryLink(want[i]), EntryUp(want[i]))
						}
					}
				}
			}
		}
	}
}

func TestCompiledSModK(t *testing.T) {
	// The cache is router-generic: a source-based scheme compiles too.
	tp := topo.MustBuild(topo.Cluster128)
	s := NewSModK(tp)
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	n := tp.NumHosts()
	for src := 0; src < n; src += 7 {
		for dst := 0; dst < n; dst += 5 {
			if src == dst {
				continue
			}
			hops, err := walkHops(s, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.PackedPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			want := pathOfHops(hops)
			if len(got) != len(want) {
				t.Fatalf("%d->%d: %d hops, want %d", src, dst, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d->%d hop %d mismatch", src, dst, i)
				}
			}
		}
	}
}

func TestCompiledWalkMatchesInnerWalk(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := DModK(tp)
	c, err := Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	var direct, cached []Hop
	if err := lft.Walk(3, 101, func(l topo.LinkID, up bool) {
		direct = append(direct, Hop{l, up})
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Walk(3, 101, func(l topo.LinkID, up bool) {
		cached = append(cached, Hop{l, up})
	}); err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(cached) {
		t.Fatalf("walk lengths differ: %d vs %d", len(direct), len(cached))
	}
	for i := range direct {
		if direct[i] != cached[i] {
			t.Fatalf("hop %d: %v vs %v", i, direct[i], cached[i])
		}
	}
}

func TestCompiledTransparency(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := DModK(tp)
	c, err := Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	if c.Label() != lft.Label() {
		t.Errorf("label %q, want inner %q", c.Label(), lft.Label())
	}
	if c.Topology() != tp {
		t.Error("topology not forwarded")
	}
	if c.Inner() != Router(lft) {
		t.Error("inner router not retained")
	}
	// Compiling a compiled router is the identity.
	c2, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c {
		t.Error("re-compile allocated a new cache")
	}
	// D-Mod-K tables have a closed form: nothing is stored. Tables
	// without one store every column.
	if c.NumEntries() != 0 {
		t.Errorf("D-Mod-K compiled to %d stored cells, want 0", c.NumEntries())
	}
	r, err := Compile(MinHopRandom(tp, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEntries() != len(r.rep)*tp.NumHosts()*r.Stride() {
		t.Errorf("minhop-random compiled to %d stored cells, want every column", r.NumEntries())
	}
}

func TestCompiledPackedPathRange(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	c, err := Compile(DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {128, 0}, {0, 128}} {
		if _, err := c.PackedPath(pair[0], pair[1]); err == nil {
			t.Errorf("PackedPath(%d, %d) accepted out-of-range pair", pair[0], pair[1])
		}
		if err := c.Walk(pair[0], pair[1], func(topo.LinkID, bool) {}); err == nil {
			t.Errorf("Walk(%d, %d) accepted out-of-range pair", pair[0], pair[1])
		}
	}
}

func TestCompileReportsBrokenTables(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := DModK(tp)
	leaf := tp.LeafOf(0)
	lft.SetOutPort(leaf.ID, 127, topo.None) // dead end on the way to host 127
	if _, err := Compile(lft); err == nil {
		t.Fatal("Compile accepted tables with a dead end")
	} else if !strings.Contains(err.Error(), "no entry") {
		t.Errorf("unexpected error: %v", err)
	}
	// With a second dead end in the last row, every worker count reports
	// the lowest row's.
	last := tp.LeafOf(tp.NumHosts() - 1)
	lft.SetOutPort(last.ID, 0, topo.None)
	for _, workers := range []int{1, 2, 7, 7, 7} {
		if _, err := CompileParallel(lft, workers); err == nil || !strings.Contains(err.Error(), "no entry for dst 127 ") {
			t.Errorf("%d workers: %v, want the dead end towards 127", workers, err)
		}
	}
}

func TestPackEntryRoundTrip(t *testing.T) {
	for _, l := range []topo.LinkID{0, 1, 17, 1 << 20} {
		for _, up := range []bool{true, false} {
			e := PackEntry(l, up)
			if EntryLink(e) != l || EntryUp(e) != up {
				t.Fatalf("round trip (%d, %v) -> (%d, %v)", l, up, EntryLink(e), EntryUp(e))
			}
		}
	}
}

// TestCellWidthDecision pins why stored cells are 32 bits wide: at the
// 36-port 3-level maximum (34,992 cables) cells run past 16 bits, up to
// 2*34,991+2. Repatching the healthy D-Mod-K arena with its own tables
// stores three columns, and every row's stored tail must read the hops
// the closed form computes.
func TestCellWidthDecision(t *testing.T) {
	g, err := topo.RLFT3(18, 36)
	if err != nil {
		t.Fatal(err)
	}
	lft := DModK(topo.MustBuild(g))
	base, err := Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	dsts := []int{0, 5000, 11663}
	p, err := base.Repatch(lft, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if rows := len(p.rep); rows != 648 || p.NumEntries() != rows*len(dsts)*p.stride {
		t.Fatalf("%d rows store %d cells, want 648 rows x %d columns x stride %d", rows, p.NumEntries(), len(dsts), p.stride)
	}
	cells := make([]uint32, p.stride)
	var got, want []PathEntry
	for row := range p.rep {
		for _, dst := range dsts {
			want = AppendHops(want[:0], NoEntry, base.Tail(cells, row, dst))
			got = AppendHops(got[:0], NoEntry, p.Tail(cells, row, dst))
			if !slices.Equal(got, want) {
				t.Fatalf("row %d -> %d: stored tail %v, closed form %v", row, dst, got, want)
			}
		}
	}
	if m := slices.Max(p.cells); m <= 0xFFFF {
		t.Fatalf("largest stored cell %d fits 16 bits", m)
	}
}
