package route

import (
	"fmt"
	"math/rand"
	"testing"

	"fattree/internal/topo"
)

// UpPortOf is the closed-form up-port rule for a level-l node and
// destination index j on spec g, the oracle the built tables are checked
// against.
func UpPortOf(g topo.PGFT, l, j int) int {
	return (j / g.WProd(l)) % (g.Wi(l+1) * g.Pi(l+1))
}

func TestDModKMatchesClosedForm(t *testing.T) {
	g := topo.Cluster324
	tp := topo.MustBuild(g)
	f := DModK(tp)
	// At every leaf, for every non-descendant destination, the chosen up
	// port must equal equation (1).
	for _, lid := range tp.ByLevel[1] {
		leaf := tp.Node(lid)
		for j := 0; j < tp.NumHosts(); j++ {
			if tp.IsDescendantHost(leaf, j) {
				continue
			}
			out := f.OutPort(lid, j)
			got := tp.Ports[out].Num
			if tp.Ports[out].Dir != topo.Up {
				t.Fatalf("leaf %v dst %d: entry is not an up port", leaf, j)
			}
			if want := UpPortOf(g, 1, j); got != want {
				t.Fatalf("leaf %v dst %d: up port %d, want %d", leaf, j, got, want)
			}
		}
	}
}

func TestDModKLemma5SingleRootPerDest(t *testing.T) {
	// Lemma 5: all sources send traffic for a destination through the
	// same top-level switch.
	tp := topo.MustBuild(topo.Cluster324)
	f := DModK(tp)
	n := tp.NumHosts()
	for dst := 0; dst < n; dst += 7 {
		want := -1
		for probe := 0; probe < n; probe += 13 {
			if tp.Spec.LCALevel(probe, dst) != tp.Spec.H {
				continue // path would not reach the top
			}
			got, err := topSwitchOf(f, probe, dst)
			if err != nil {
				t.Fatal(err)
			}
			if want == -1 {
				want = got
			} else if got != want {
				t.Fatalf("dst %d reached via roots %d and %d", dst, want, got)
			}
		}
	}
}

func TestDModKRootLoadBalanced(t *testing.T) {
	// Lemma 6 corollary: each root switch serves at most
	// ceil(N / numRoots) destinations; on a complete RLFT exactly
	// N / numRoots.
	tp := topo.MustBuild(topo.Cluster1728)
	f := DModK(tp)
	n := tp.NumHosts()
	roots := len(tp.ByLevel[tp.Spec.H])
	counts := make([]int, roots)
	for dst := 0; dst < n; dst++ {
		// Probe from a host in a different top-level subtree.
		probe := (dst + n/2) % n
		if tp.Spec.LCALevel(probe, dst) != tp.Spec.H {
			t.Fatalf("bad probe choice for dst %d", dst)
		}
		r, err := topSwitchOf(f, probe, dst)
		if err != nil {
			t.Fatal(err)
		}
		counts[r]++
	}
	want := n / roots
	for r, c := range counts {
		if c != want {
			t.Errorf("root %d serves %d destinations, want %d", r, c, want)
		}
	}
}

func TestDModKActiveFullEqualsDModK(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	all := make([]int, tp.NumHosts())
	for i := range all {
		all[i] = i
	}
	a, err := DModKActive(tp, all)
	if err != nil {
		t.Fatal(err)
	}
	sameTables(t, a, DModK(tp))
}

// tablesDiffer returns the first (node, destination) whose entry differs
// between a and b, read the way every walker reads it.
func tablesDiffer(a, b *LFT) (id topo.NodeID, dst int, differ bool) {
	for i := range a.T.Nodes {
		for j := 0; j < a.T.NumHosts(); j++ {
			if a.OutPort(topo.NodeID(i), j) != b.OutPort(topo.NodeID(i), j) {
				return topo.NodeID(i), j, true
			}
		}
	}
	return 0, 0, false
}

// sameTables fails unless a and b agree entry for entry.
func sameTables(t *testing.T, a, b *LFT) {
	t.Helper()
	if id, j, differ := tablesDiffer(a, b); differ {
		t.Fatalf("%v dst %d: %s has port %d, %s has %d", a.T.Node(id), j, a.Name, a.OutPort(id, j), b.Name, b.OutPort(id, j))
	}
}

func TestActiveRanks(t *testing.T) {
	r, err := ActiveRanks(8, []int{1, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1, 1, 2, 3, 3}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("activeRanks = %v, want %v", r, want)
		}
	}
}

func TestActiveRanksRejectsMalformedSets(t *testing.T) {
	for _, bad := range [][]int{{1, 1}, {-1}, {8}} {
		if _, err := ActiveRanks(8, bad); err == nil {
			t.Errorf("ActiveRanks(8, %v) accepted a malformed set", bad)
		}
	}
	tp := topo.MustBuild(topo.Cluster128)
	if _, err := DModKActive(tp, []int{0, 0}); err == nil {
		t.Error("DModKActive accepted a duplicate active host")
	}
}

func TestTraceErrors(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	f := DModK(tp)
	// Dead end: erase an entry on the path 0 -> 127.
	leaf := tp.LeafOf(0)
	f.SetOutPort(leaf.ID, 127, topo.None)
	if _, err := f.Trace(0, 127); err == nil {
		t.Error("trace across erased entry should fail")
	}
	// Loop: bounce between host 0 and its leaf.
	f2 := DModK(tp)
	f2.SetOutPort(leaf.ID, 127, leaf.Down[0]) // back to host 0
	if _, err := f2.Trace(0, 127); err == nil {
		t.Error("forwarding loop should be detected")
	}
}

func TestWalkMatchesTrace(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	f := DModK(tp)
	for _, pair := range [][2]int{{0, 323}, {17, 18}, {100, 200}, {5, 4}} {
		hops, err := f.Trace(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		var walked []Hop
		err = f.Walk(pair[0], pair[1], func(l topo.LinkID, up bool) {
			walked = append(walked, Hop{Link: l, Up: up})
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(walked) != len(hops) {
			t.Fatalf("walk %v: %d hops, trace %d", pair, len(walked), len(hops))
		}
		for i := range hops {
			if hops[i] != walked[i] {
				t.Fatalf("walk %v hop %d: %v != %v", pair, i, walked[i], hops[i])
			}
		}
	}
}

func TestDModKActiveDownPortUniquenessOverActivePairs(t *testing.T) {
	// Theorem 2's analogue for partial trees: over all-to-all traffic
	// among the active hosts, no down port carries two destinations
	// when the removal respects the allocation granule.
	tp := topo.MustBuild(topo.Cluster128) // granule 8
	r := rand.New(rand.NewSource(31))
	perm := r.Perm(tp.NumHosts())
	active := append([]int(nil), perm[8:]...) // drop one granule
	f, err := DModKActive(tp, active)
	if err != nil {
		t.Fatal(err)
	}

	destOn := make(map[topo.PortID]int)
	for _, src := range active {
		for _, dst := range active {
			if src == dst {
				continue
			}
			err := f.Walk(src, dst, func(l topo.LinkID, up bool) {
				if up {
					return
				}
				port := tp.Links[l].Upper
				if prev, ok := destOn[port]; ok && prev != dst {
					t.Fatalf("down port %d carries destinations %d and %d", port, prev, dst)
				}
				destOn[port] = dst
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// topSwitchOf returns the index (within the top level) of the single
// root switch that carries all traffic towards dst, per Lemma 5, by
// walking up from host probe (any non-descendant source reaches the same
// root). Returns an error if dst shares a leaf with probe and never
// reaches the top (use another probe source in that case).
func topSwitchOf(f *LFT, probe, dst int) (int, error) {
	t := f.T
	cur := t.HostID(probe)
	for {
		node := t.Node(cur)
		if node.Level == t.Spec.H {
			return node.Index, nil
		}
		if node.Kind == topo.Host && node.Index == dst {
			return 0, fmt.Errorf("route: %s: path %d->%d never reaches the top", f.Name, probe, dst)
		}
		out := f.OutPort(cur, dst)
		if out == topo.None {
			return 0, fmt.Errorf("route: %s: no entry for dst %d at %v", f.Name, dst, node)
		}
		if t.Ports[out].Dir == topo.Down && node.Level < t.Spec.H {
			return 0, fmt.Errorf("route: %s: path %d->%d turns down at level %d", f.Name, probe, dst, node.Level)
		}
		cur = t.PeerNode(out)
	}
}
