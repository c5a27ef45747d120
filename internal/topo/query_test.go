package topo

import (
	"testing"
	"testing/quick"
)

func TestLeafOf(t *testing.T) {
	tp := MustBuild(Cluster324)
	for j := 0; j < tp.NumHosts(); j++ {
		leaf := tp.LeafOf(j)
		if leaf.Level != 1 {
			t.Fatalf("leaf of %d at level %d", j, leaf.Level)
		}
		if want := j / 18; leaf.Index != want {
			t.Errorf("leaf of host %d = %d, want %d", j, leaf.Index, want)
		}
	}
}

func TestIsDescendantHost(t *testing.T) {
	tp := MustBuild(Cluster1944)
	// Every host is a descendant of its own leaf and of all top
	// switches' subtrees only when digits agree.
	for _, j := range []int{0, 17, 18, 323, 324, 1943} {
		leaf := tp.LeafOf(j)
		if !tp.IsDescendantHost(leaf, j) {
			t.Errorf("host %d should descend from its leaf %v", j, leaf)
		}
		other := tp.LeafOf((j + 18) % tp.NumHosts())
		if tp.IsDescendantHost(other, j) {
			t.Errorf("host %d should not descend from leaf %v", j, other)
		}
	}
	// Top-level switches cover everything.
	for _, sid := range tp.ByLevel[tp.Spec.H] {
		sw := tp.Node(sid)
		for _, j := range []int{0, 971, 1943} {
			if !tp.IsDescendantHost(sw, j) {
				t.Errorf("top switch %v should cover host %d", sw, j)
			}
		}
	}
}

func TestHostsUnder(t *testing.T) {
	tp := MustBuild(Cluster1728)
	// A level-2 switch covers m1*m2 = 144 contiguous hosts.
	sw := tp.Node(tp.ByLevel[2][0])
	hosts := tp.HostsUnder(sw)
	if len(hosts) != 144 {
		t.Fatalf("level-2 subtree size = %d, want 144", len(hosts))
	}
	for i, h := range hosts {
		if h != i {
			t.Fatalf("hosts under first level-2 switch = %v..., want 0..143", hosts[:i+1])
		}
		if !tp.IsDescendantHost(sw, h) {
			t.Fatalf("HostsUnder returned non-descendant %d", h)
		}
	}
	// Spot-check a later subtree: switch with digit d3=5 covers
	// [720, 864).
	var sw5 *Node
	for _, sid := range tp.ByLevel[2] {
		n := tp.Node(sid)
		if n.Digits[2] == 5 && n.Digits[0] == 0 && n.Digits[1] == 0 {
			sw5 = n
			break
		}
	}
	if sw5 == nil {
		t.Fatal("no level-2 switch with digits (0,0,5)")
	}
	h5 := tp.HostsUnder(sw5)
	if h5[0] != 720 || h5[len(h5)-1] != 863 {
		t.Errorf("subtree (0,0,5) spans [%d,%d], want [720,863]", h5[0], h5[len(h5)-1])
	}
}

func TestLCALevel(t *testing.T) {
	g := Cluster1944 // m = 18, 18, 6
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 1},     // same leaf
		{0, 17, 1},    // same leaf
		{0, 18, 2},    // same level-2 subtree, different leaves
		{0, 323, 2},   // last host of the first level-2 subtree
		{0, 324, 3},   // different level-2 subtree
		{0, 1943, 3},  //
		{324, 340, 1}, // both in leaf 18
		{324, 647, 2}, // within second level-2 subtree
	}
	for _, tc := range cases {
		if got := g.LCALevel(tc.a, tc.b); got != tc.want {
			t.Errorf("LCALevel(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLCALevelSymmetricQuick(t *testing.T) {
	g := Cluster1728
	n := g.NumHosts()
	f := func(a, b uint16) bool {
		x, y := int(a)%n, int(b)%n
		return g.LCALevel(x, y) == g.LCALevel(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestParentsChildren(t *testing.T) {
	tp := MustBuild(Cluster324)
	leaf := tp.Node(tp.ByLevel[1][3])
	parents := parentsOf(tp, leaf)
	if len(parents) != 9 {
		t.Fatalf("leaf parents = %d, want 9 distinct spines", len(parents))
	}
	for _, pid := range parents {
		sp := tp.Node(pid)
		if sp.Level != 2 {
			t.Errorf("parent %v not at level 2", sp)
		}
		kids := childrenOf(tp, sp)
		if len(kids) != 18 {
			t.Errorf("spine %v children = %d, want 18", sp, len(kids))
		}
		found := false
		for _, k := range kids {
			if k == leaf.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("spine %v missing child leaf %v", sp, leaf)
		}
	}
	host := tp.Host(40)
	if got := parentsOf(tp, host); len(got) != 1 {
		t.Errorf("host parents = %d, want 1", len(got))
	}
	if got := childrenOf(tp, host); got != nil {
		t.Errorf("host children = %v, want nil", got)
	}
	top := tp.Node(tp.ByLevel[2][0])
	if got := parentsOf(tp, top); got != nil {
		t.Errorf("top switch parents = %v, want nil", got)
	}
}

func TestUpPortTo(t *testing.T) {
	tp := MustBuild(Cluster324)
	leaf := tp.Node(tp.ByLevel[1][0])
	// w2=9, p2=2: parent digit 4 is reachable via up ports 4 and 13.
	ports := upPortTo(tp, leaf, 4)
	if len(ports) != 2 || ports[0] != 4 || ports[1] != 13 {
		t.Fatalf("upPortTo(leaf,4) = %v, want [4 13]", ports)
	}
	for _, q := range ports {
		peer := tp.Node(tp.PeerNode(leaf.Up[q]))
		if peer.Digits[1] != 4 {
			t.Errorf("up port %d reaches parent digit %d, want 4", q, peer.Digits[1])
		}
	}
}

func TestPeerPortInvolution(t *testing.T) {
	tp := MustBuild(Cluster128)
	for i := range tp.Ports {
		p := PortID(i)
		if got := tp.PeerPort(tp.PeerPort(p)); got != p {
			t.Fatalf("PeerPort not an involution at %d", i)
		}
	}
}

func TestDiameterAndBisection(t *testing.T) {
	if got := Cluster324.Diameter(); got != 4 {
		t.Errorf("324 diameter = %d, want 4", got)
	}
	if got := Cluster1944.Diameter(); got != 6 {
		t.Errorf("1944 diameter = %d, want 6", got)
	}
	// Constant CBB: bisection links equal the host count.
	for _, g := range []PGFT{Cluster128, Cluster324, Cluster1728, Cluster1944} {
		if got := bisectionLinks(g); got != g.NumHosts() {
			t.Errorf("%v bisection links = %d, want %d (full bisection)", g, got, g.NumHosts())
		}
	}
	// A tapered tree has fewer.
	tapered := MustPGFT(2, []int{24, 12}, []int{1, 12}, []int{1, 1})
	if got := bisectionLinks(tapered); got != tapered.NumHosts()/2 {
		t.Errorf("2:1 taper bisection = %d, want %d", got, tapered.NumHosts()/2)
	}
	if got := bisectionLinks(MustPGFT(1, []int{8}, []int{1}, []int{1})); got != 0 {
		t.Errorf("single level bisection = %d, want 0", got)
	}
}

func TestLinksAtLevel(t *testing.T) {
	tp := MustBuild(Cluster324)
	if got := linksAtLevel(tp, 1); got != 324 {
		t.Errorf("host links = %d, want 324", got)
	}
	if got := linksAtLevel(tp, 2); got != 324 {
		t.Errorf("fabric links = %d, want 324", got)
	}
	if linksAtLevel(tp, 1)+linksAtLevel(tp, 2) != len(tp.Links) {
		t.Error("level link counts do not cover all links")
	}
}

// Oracles of the builder's wiring and of the spec arithmetic.

// parentsOf returns the distinct parent node IDs of n (each reachable via
// p_{l+1} parallel links), in parent digit order.
func parentsOf(t *Topology, n *Node) []NodeID {
	if n.Level >= t.Spec.H {
		return nil
	}
	w := t.Spec.Wi(n.Level + 1)
	out := make([]NodeID, 0, w)
	seen := make(map[NodeID]bool, w)
	for _, pid := range n.Up {
		peer := t.Ports[t.PeerPort(pid)].Node
		if !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	return out
}

// childrenOf returns the distinct child node IDs of n, in child digit
// order.
func childrenOf(t *Topology, n *Node) []NodeID {
	if n.Level == 0 {
		return nil
	}
	m := t.Spec.Mi(n.Level)
	out := make([]NodeID, 0, m)
	seen := make(map[NodeID]bool, m)
	for _, pid := range n.Down {
		peer := t.Ports[t.PeerPort(pid)].Node
		if !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	return out
}

// upPortTo returns the up-going port numbers on n that reach the parent
// with digit b at position level+1 (one per parallel link, ascending).
func upPortTo(t *Topology, n *Node, parentDigit int) []int {
	w := t.Spec.Wi(n.Level + 1)
	p := t.Spec.Pi(n.Level + 1)
	out := make([]int, 0, p)
	for k := 0; k < p; k++ {
		out = append(out, parentDigit+k*w)
	}
	return out
}

// bisectionLinks returns the number of cables crossing into the top
// level — on a constant-CBB tree this equals the host count, the
// "full bisection" property marketing sheets quote.
func bisectionLinks(g PGFT) int {
	if g.H < 2 {
		return 0
	}
	return g.NumSwitches(g.H-1) * g.UpPorts(g.H-1)
}

// linksAtLevel counts the cables joining levels l-1 and l.
func linksAtLevel(t *Topology, l int) int {
	n := 0
	for i := range t.Links {
		if t.Links[i].Level == l {
			n++
		}
	}
	return n
}
