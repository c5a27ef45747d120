package route

import (
	"testing"

	"fattree/internal/topo"
)

func TestSModKDelivers(t *testing.T) {
	for _, g := range []topo.PGFT{
		topo.Cluster128,
		topo.Cluster324,
		topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2}),
	} {
		tp := topo.MustBuild(g)
		s := NewSModK(tp)
		n := tp.NumHosts()
		for src := 0; src < n; src += 3 {
			for dst := 0; dst < n; dst += 5 {
				if src == dst {
					continue
				}
				hops, err := walkHops(s, src, dst)
				if err != nil {
					t.Fatalf("%v: %v", g, err)
				}
				if want := 2 * g.LCALevel(src, dst); len(hops) != want {
					t.Fatalf("%v: %d->%d has %d hops, want %d", g, src, dst, len(hops), want)
				}
				// up*/down* shape.
				down := false
				for _, h := range hops {
					if h.Up && down {
						t.Fatalf("%v: %d->%d climbs after descending", g, src, dst)
					}
					if !h.Up {
						down = true
					}
				}
			}
		}
	}
}

func TestSModKSelfFlowNoHops(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	s := NewSModK(tp)
	hops, err := walkHops(s, 5, 5)
	if err != nil || len(hops) != 0 {
		t.Errorf("self trace = (%v, %v), want no hops", hops, err)
	}
	if _, err := walkHops(s, -1, 5); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := walkHops(s, 0, 1000); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestSModKSpreadsBySource(t *testing.T) {
	// Two sources in the same leaf must leave through different up
	// ports regardless of destination — the defining property.
	tp := topo.MustBuild(topo.Cluster324)
	s := NewSModK(tp)
	dst := 323
	used := make(map[topo.LinkID]bool)
	for src := 0; src < 18; src++ { // leaf 0
		hops, err := walkHops(s, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		first := hops[1] // hop 0 is host->leaf; hop 1 is the leaf's up link
		if used[first.Link] {
			t.Fatalf("sources in one leaf share up link %d", first.Link)
		}
		used[first.Link] = true
	}
}

func TestSModKUsesManyRootsPerDest(t *testing.T) {
	// The contrast to D-Mod-K's Lemma 5: under S-Mod-K, different
	// sources reach a destination via different top switches — the
	// reason it cannot be expressed as a destination-keyed LFT.
	tp := topo.MustBuild(topo.Cluster324)
	s := NewSModK(tp)
	dst := 300
	roots := make(map[topo.NodeID]bool)
	for src := 0; src < 100; src++ {
		if tp.Spec.LCALevel(src, dst) != tp.Spec.H {
			continue
		}
		err := s.Walk(src, dst, func(l topo.LinkID, up bool) {
			lk := &tp.Links[l]
			node := tp.Node(tp.Ports[lk.Upper].Node)
			if node.Level == tp.Spec.H {
				roots[node.ID] = true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(roots) < 2 {
		t.Errorf("s-mod-k uses %d roots for dest %d, expected several (unlike d-mod-k)", len(roots), dst)
	}
}

func TestRouterInterfaceCompliance(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	var _ Router = DModK(tp)
	var _ Router = NewSModK(tp)
	if got := DModK(tp).Label(); got != "d-mod-k" {
		t.Errorf("LFT label = %q", got)
	}
	if got := NewSModK(tp).Label(); got != "s-mod-k" {
		t.Errorf("SModK label = %q", got)
	}
	if NewSModK(tp).Topology() != tp {
		t.Error("SModK topology accessor broken")
	}
}

// walkHops collects a router's hops for one pair, the way LFT.Trace
// reports them.
func walkHops(r Router, src, dst int) ([]Hop, error) {
	var hops []Hop
	err := r.Walk(src, dst, func(l topo.LinkID, up bool) {
		hops = append(hops, Hop{Link: l, Up: up})
	})
	return hops, err
}
