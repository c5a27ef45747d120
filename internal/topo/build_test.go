package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildPerNode is the builder Build replaced, kept as its oracle: every
// node, port list and link is its own allocation, and every up port
// finds its parent by copying the node's digit vector, setting position
// l+1 and encoding it again.
func buildPerNode(spec PGFT) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Spec: spec}
	t.ByLevel = make([][]NodeID, spec.H+1)
	t.Nodes = make([]Node, 0, spec.NumHosts()+spec.TotalSwitches())
	for l := 0; l <= spec.H; l++ {
		count := t.levelCount(l)
		t.ByLevel[l] = make([]NodeID, count)
		for idx := 0; idx < count; idx++ {
			kind := Switch
			if l == 0 {
				kind = Host
			}
			id := NodeID(len(t.Nodes))
			n := Node{ID: id, Kind: kind, Level: l, Digits: make([]int, spec.H), Index: idx}
			t.digitsOf(n.Digits, l, idx)
			nUp := spec.UpPorts(l)
			nDown := 0
			if l > 0 {
				nDown = spec.DownPorts(l)
			}
			n.first = PortID(len(t.Ports))
			n.Up = make([]PortID, nUp)
			n.Down = make([]PortID, nDown)
			for q := 0; q < nUp; q++ {
				pid := PortID(len(t.Ports))
				t.Ports = append(t.Ports, Port{ID: pid, Node: id, Dir: Up, Num: q, Link: None})
				n.Up[q] = pid
			}
			for r := 0; r < nDown; r++ {
				pid := PortID(len(t.Ports))
				t.Ports = append(t.Ports, Port{ID: pid, Node: id, Dir: Down, Num: r, Link: None})
				n.Down[r] = pid
			}
			t.Nodes = append(t.Nodes, n)
			t.ByLevel[l][idx] = id
		}
	}
	for l := 0; l < spec.H; l++ {
		wUp, pUp, mUp := spec.Wi(l+1), spec.Pi(l+1), spec.Mi(l+1)
		for _, aid := range t.ByLevel[l] {
			a := &t.Nodes[aid]
			for q := 0; q < wUp*pUp; q++ {
				b, k := q%wUp, q/wUp
				pd := append([]int(nil), a.Digits...)
				pd[l] = b
				bn := &t.Nodes[t.ByLevel[l+1][t.indexOf(l+1, pd)]]
				r := a.Digits[l] + k*mUp
				lower, upper := a.Up[q], bn.Down[r]
				if t.Ports[lower].Link != None || t.Ports[upper].Link != None {
					return nil, fmt.Errorf("topo: link %v/%d -> %v/%d wired twice", a, q, bn, r)
				}
				lid := LinkID(len(t.Links))
				t.Links = append(t.Links, Link{ID: lid, Lower: lower, Upper: upper, Level: l + 1})
				t.Ports[lower].Link = lid
				t.Ports[upper].Link = lid
			}
		}
	}
	return t, nil
}

// indexOf encodes a digit vector back into the linear index at level l.
func (t *Topology) indexOf(l int, digits []int) int {
	idx := 0
	mul := 1
	for i := 1; i <= t.Spec.H; i++ {
		idx += digits[i-1] * mul
		mul *= t.radixAt(l, i)
	}
	return idx
}

// sameAsPerNode fails unless Build's slabs and buildPerNode agree on g,
// node for node, port for port and link for link.
func sameAsPerNode(t *testing.T, g PGFT) {
	t.Helper()
	got, err := Build(g)
	if err != nil {
		t.Fatalf("Build(%v): %v", g, err)
	}
	want, err := buildPerNode(g)
	if err != nil {
		t.Fatalf("buildPerNode(%v): %v", g, err)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"Nodes", got.Nodes, want.Nodes},
		{"Ports", got.Ports, want.Ports},
		{"Links", got.Links, want.Links},
		{"ByLevel", got.ByLevel, want.ByLevel},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%v: Build's %s differ from the per-node builder's", g, f.name)
		}
	}
}

// TestBuildMatchesPerNode holds Build to the per-node builder on the
// paper's clusters, Figure 4(b) and seeded small tuples with parallel
// ports at every level (build_ext_test.go adds RandPGFT and RandRLFT).
func TestBuildMatchesPerNode(t *testing.T) {
	for _, g := range []PGFT{Cluster128, Cluster324, Cluster1728, Cluster1944,
		MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}),
		MustPGFT(3, []int{3, 2, 4}, []int{2, 3, 2}, []int{2, 2, 3}),
		MustPGFT(1, []int{8}, []int{1}, []int{1})} {
		sameAsPerNode(t, g)
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		sameAsPerNode(t, randomSpec(r))
	}
}

// TestBuildWindowsCapped appends to one node's Digits, Up and Down, and
// to one level of ByLevel, and requires every other node and level to
// read as before: each is a window of a shared slab, capped where it
// ends.
func TestBuildWindowsCapped(t *testing.T) {
	for _, g := range []PGFT{Cluster324, MustPGFT(3, []int{3, 2, 4}, []int{2, 3, 2}, []int{2, 2, 3})} {
		tp, want := MustBuild(g), MustBuild(g)
		for i := range tp.Nodes {
			n := &tp.Nodes[i]
			_ = append(n.Digits, -1)
			_ = append(n.Up, -1)
			_ = append(n.Down, -1)
		}
		for l := range tp.ByLevel {
			_ = append(tp.ByLevel[l], -1)
		}
		if !reflect.DeepEqual(tp.Nodes, want.Nodes) || !reflect.DeepEqual(tp.ByLevel, want.ByLevel) {
			t.Fatalf("%v: appending to one node's slices changed another's", g)
		}
	}
}

// TestBuildAllocs pins Build's allocations to a fixed count: the slabs
// do not multiply with the fabric's nodes, ports or links.
func TestBuildAllocs(t *testing.T) {
	small, large := MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}), Cluster1944
	allocs := func(g PGFT) float64 {
		return testing.AllocsPerRun(3, func() { MustBuild(g) })
	}
	if a, b := allocs(small), allocs(large); a != b || b > 8 {
		t.Fatalf("Build allocates %v times on %v and %v on %v: want the same fixed count, at most 8", a, small, b, large)
	}
}

// checkWiring verifies the structural invariants every built PGFT must
// satisfy.
func checkWiring(t *testing.T, tp *Topology) {
	t.Helper()
	g := tp.Spec
	// Node counts per level.
	if got := len(tp.ByLevel[0]); got != g.NumHosts() {
		t.Errorf("%v: hosts = %d, want %d", g, got, g.NumHosts())
	}
	for l := 1; l <= g.H; l++ {
		if got := len(tp.ByLevel[l]); got != g.NumSwitches(l) {
			t.Errorf("%v: level %d switches = %d, want %d", g, l, got, g.NumSwitches(l))
		}
	}
	// Port counts per node and full connectivity.
	for i := range tp.Nodes {
		n := &tp.Nodes[i]
		if got := len(n.Up); got != g.UpPorts(n.Level) {
			t.Errorf("%v: %v up ports = %d, want %d", g, n, got, g.UpPorts(n.Level))
		}
		wantDown := 0
		if n.Level > 0 {
			wantDown = g.DownPorts(n.Level)
		}
		if got := len(n.Down); got != wantDown {
			t.Errorf("%v: %v down ports = %d, want %d", g, n, got, wantDown)
		}
	}
	for i := range tp.Ports {
		if tp.Ports[i].Link == None {
			t.Errorf("%v: port %d unconnected", g, i)
		}
	}
	// Links join adjacent levels, lower-up to upper-down, and each link
	// is referenced by exactly its two ports.
	refs := make(map[LinkID]int)
	for i := range tp.Ports {
		refs[tp.Ports[i].Link]++
	}
	for i := range tp.Links {
		lk := &tp.Links[i]
		lo := &tp.Ports[lk.Lower]
		up := &tp.Ports[lk.Upper]
		if lo.Dir != Up || up.Dir != Down {
			t.Errorf("%v: link %d directions wrong", g, i)
		}
		ln := &tp.Nodes[lo.Node]
		un := &tp.Nodes[up.Node]
		if un.Level != ln.Level+1 {
			t.Errorf("%v: link %d joins levels %d and %d", g, i, ln.Level, un.Level)
		}
		if refs[lk.ID] != 2 {
			t.Errorf("%v: link %d referenced by %d ports, want 2", g, i, refs[lk.ID])
		}
	}
	// The k-th parallel connection rule: up port q on node a reaches the
	// parent whose digit at position l+1 is q mod w, on its down port
	// a.Digits[l] + (q/w)*m.
	for i := range tp.Nodes {
		a := &tp.Nodes[i]
		if a.Level == g.H {
			continue
		}
		w := g.Wi(a.Level + 1)
		m := g.Mi(a.Level + 1)
		for q, pid := range a.Up {
			peer := &tp.Ports[tp.PeerPort(pid)]
			parent := &tp.Nodes[peer.Node]
			if parent.Digits[a.Level] != q%w {
				t.Fatalf("%v: %v up port %d reaches parent digit %d, want %d",
					g, a, q, parent.Digits[a.Level], q%w)
			}
			wantR := a.Digits[a.Level] + (q/w)*m
			if peer.Num != wantR {
				t.Fatalf("%v: %v up port %d lands on down port %d, want %d",
					g, a, q, peer.Num, wantR)
			}
			// All non-(l+1) digits must agree.
			for d := 0; d < g.H; d++ {
				if d == a.Level {
					continue
				}
				if parent.Digits[d] != a.Digits[d] {
					t.Fatalf("%v: %v connected to non-matching parent %v (digit %d)",
						g, a, parent, d+1)
				}
			}
		}
	}
}

func TestBuildFigure4b(t *testing.T) {
	tp := MustBuild(MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	checkWiring(t, tp)
	if got := len(tp.Links); got != 16+16 {
		t.Errorf("links = %d, want 32 (16 host + 16 fabric)", got)
	}
	// Each of the 2 spines must reach each leaf over exactly 2 parallel
	// links.
	for _, sid := range tp.ByLevel[2] {
		sp := tp.Node(sid)
		seen := make(map[NodeID]int)
		for _, pid := range sp.Down {
			seen[tp.PeerNode(pid)]++
		}
		if len(seen) != 4 {
			t.Errorf("spine %v reaches %d leaves, want 4", sp, len(seen))
		}
		for leaf, c := range seen {
			if c != 2 {
				t.Errorf("spine %v reaches leaf %v over %d links, want 2", sp, tp.Node(leaf), c)
			}
		}
	}
}

func TestBuildPaperClusters(t *testing.T) {
	for _, g := range []PGFT{Cluster128, Cluster324, Cluster1728, Cluster1944} {
		tp, err := Build(g)
		if err != nil {
			t.Fatalf("Build(%v): %v", g, err)
		}
		checkWiring(t, tp)
	}
}

func TestBuildSingleLevel(t *testing.T) {
	// A single crossbar with 8 hosts.
	tp := MustBuild(MustPGFT(1, []int{8}, []int{1}, []int{1}))
	checkWiring(t, tp)
	if len(tp.ByLevel[1]) != 1 {
		t.Fatalf("want exactly one switch, got %d", len(tp.ByLevel[1]))
	}
	if got := len(tp.Links); got != 8 {
		t.Errorf("links = %d, want 8", got)
	}
}

// randomSpec draws a small random PGFT for property testing.
func randomSpec(r *rand.Rand) PGFT {
	h := 1 + r.Intn(3)
	m := make([]int, h)
	w := make([]int, h)
	p := make([]int, h)
	for i := 0; i < h; i++ {
		m[i] = 1 + r.Intn(4)
		w[i] = 1 + r.Intn(3)
		p[i] = 1 + r.Intn(2)
	}
	w[0] = 1 // keep graphs small and host-uplink-like
	return MustPGFT(h, m, w, p)
}

func TestBuildPropertyRandomSpecs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		g := randomSpec(r)
		tp, err := Build(g)
		if err != nil {
			t.Fatalf("Build(%v): %v", g, err)
		}
		checkWiring(t, tp)
	}
}

func TestDigitsIndexRoundTripQuick(t *testing.T) {
	tp := MustBuild(Cluster324)
	f := func(raw uint16, lvl uint8) bool {
		l := int(lvl) % (tp.Spec.H + 1)
		idx := int(raw) % tp.levelCount(l)
		d := make([]int, tp.Spec.H)
		tp.digitsOf(d, l, idx)
		return tp.indexOf(l, d) == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNodeIndexMatchesPosition(t *testing.T) {
	tp := MustBuild(Cluster1728)
	for l := 0; l <= tp.Spec.H; l++ {
		for i, id := range tp.ByLevel[l] {
			n := tp.Node(id)
			if n.Index != i || n.Level != l {
				t.Fatalf("node %v filed under level %d pos %d", n, l, i)
			}
		}
	}
}

func TestHostLinearIndexIsMixedRadix(t *testing.T) {
	tp := MustBuild(Cluster1944)
	g := tp.Spec
	for _, j := range []int{0, 1, 18, 19, 324, 1943} {
		h := tp.Host(j)
		for i := 1; i <= g.H; i++ {
			if h.Digits[i-1] != g.HostDigit(j, i) {
				t.Errorf("host %d digit %d = %d, want %d", j, i, h.Digits[i-1], g.HostDigit(j, i))
			}
		}
	}
}
