// Package topo implements the fat-tree topology models of Zahavi's
// "Fat-Trees Routing and Node Ordering Providing Contention Free Traffic
// for MPI Global Collectives" (Section IV): Parallel Ports Generalized
// Fat-Trees (PGFT) and their practically-buildable sub-class, Real Life
// Fat-Trees (RLFT).
//
// A PGFT is canonically defined by the tuple
//
//	PGFT(h; m1..mh; w1..wh; p1..ph)
//
// where h is the number of switch levels, m_l is the number of distinct
// lower-level nodes connected to each node at level l, w_l is the number of
// distinct level-l nodes connected to each node at level l-1, and p_l is the
// number of parallel links between each such connected pair.
//
// Nodes are addressed by digit vectors (Section IV.B): a node at level l
// carries h digits; digit positions 1..l range over [0, w_i) and positions
// l+1..h range over [0, m_i). Hosts sit at level 0, so all their digits are
// in the m ranges and the little-endian mixed-radix value of the digit
// vector is the host's linear index.
//
// No node may have more than MaxPorts (255) ports, up and down together:
// a forwarding table entry names a port by its number on the node in one
// byte. Validate refuses a larger spec, naming the level and the count.
package topo

import (
	"fmt"
	"math"
)

// PGFT is the canonical parameter tuple of a Parallel Ports Generalized
// Fat-Tree. Slices are indexed 0..H-1 for tree levels 1..H.
type PGFT struct {
	// H is the number of switch levels (hosts occupy level 0).
	H int
	// M[l-1] is the number of distinct children of a level-l node.
	M []int
	// W[l-1] is the number of distinct parents of a level-(l-1) node.
	W []int
	// P[l-1] is the number of parallel links between a connected
	// level-(l-1)/level-l node pair.
	P []int
}

// NewPGFT validates the parameter vectors and returns the spec.
func NewPGFT(h int, m, w, p []int) (PGFT, error) {
	g := PGFT{H: h, M: append([]int(nil), m...), W: append([]int(nil), w...), P: append([]int(nil), p...)}
	if err := g.Validate(); err != nil {
		return PGFT{}, err
	}
	return g, nil
}

// MustPGFT is NewPGFT that panics on invalid parameters. Intended for
// package-level construction of well-known topologies and for tests.
func MustPGFT(h int, m, w, p []int) PGFT {
	g, err := NewPGFT(h, m, w, p)
	if err != nil {
		panic(err)
	}
	return g
}

// Validate checks structural sanity of the parameter tuple.
func (g PGFT) Validate() error {
	if g.H < 1 || g.H > MaxLevels {
		return fmt.Errorf("topo: PGFT needs 1 to %d levels, got h=%d", MaxLevels, g.H)
	}
	if len(g.M) != g.H || len(g.W) != g.H || len(g.P) != g.H {
		return fmt.Errorf("topo: PGFT(h=%d) wants %d-long m/w/p vectors, got %d/%d/%d",
			g.H, g.H, len(g.M), len(g.W), len(g.P))
	}
	for l := 1; l <= g.H; l++ {
		if g.M[l-1] < 1 || g.W[l-1] < 1 || g.P[l-1] < 1 {
			return fmt.Errorf("topo: PGFT level %d has non-positive parameter (m=%d w=%d p=%d)",
				l, g.M[l-1], g.W[l-1], g.P[l-1])
		}
		if max(g.M[l-1], g.W[l-1], g.P[l-1]) > math.MaxInt32 { // so no port count below overflows
			return fmt.Errorf("topo: PGFT level %d has a parameter above %d (m=%d w=%d p=%d)",
				l, math.MaxInt32, g.M[l-1], g.W[l-1], g.P[l-1])
		}
	}
	nodes := 1 // every level's count (NumHosts, NumSwitches) must be a NodeID
	for _, m := range g.M {
		if nodes > math.MaxInt32/m {
			return fmt.Errorf("topo: %v: more than %d end-ports", g, math.MaxInt32)
		}
		nodes *= m
	}
	for l := 1; l <= g.H; l++ { // each level up trades m_l for w_l
		if nodes /= g.M[l-1]; nodes > math.MaxInt32/g.W[l-1] {
			return fmt.Errorf("topo: %v: level %d holds more than %d switches", g, l, math.MaxInt32)
		}
		nodes *= g.W[l-1]
	}
	for l := 0; l <= g.H; l++ {
		if ports := g.UpPorts(l) + g.DownPorts(l); ports > MaxPorts {
			return fmt.Errorf("topo: %v: a level-%d node has %d ports, more than the %d a forwarding table entry can name",
				g, l, ports, MaxPorts)
		}
	}
	return nil
}

// MaxPorts bounds the port count of any node, up and down ports
// together. A forwarding table entry is the port number on its node in
// one byte, with 255 reserved for "no entry" (OpenSM's OSM_NO_PATH), so
// ports are numbered 0..254. Real switch radixes sit far below it; the
// paper's are 36 ports.
const MaxPorts = 255

// MaxLevels bounds the tree height: an up*/down* path takes up to 2h
// hops, and an InfiniBand directed route, how a subnet manager reaches a
// node it has not yet programmed, carries 64 at most.
const MaxLevels = 32

// Mi returns m_l (1-based level).
func (g PGFT) Mi(l int) int { return g.M[l-1] }

// Wi returns w_l (1-based level).
func (g PGFT) Wi(l int) int { return g.W[l-1] }

// Pi returns p_l (1-based level).
func (g PGFT) Pi(l int) int { return g.P[l-1] }

// NumHosts returns the number of end-ports N = prod(m_l).
func (g PGFT) NumHosts() int {
	n := 1
	for _, m := range g.M {
		n *= m
	}
	return n
}

// NumSwitches returns the number of switches at level l (1-based):
// prod_{i<=l} w_i * prod_{i>l} m_i.
func (g PGFT) NumSwitches(l int) int {
	n := 1
	for i := 1; i <= l; i++ {
		n *= g.W[i-1]
	}
	for i := l + 1; i <= g.H; i++ {
		n *= g.M[i-1]
	}
	return n
}

// TotalSwitches returns the switch count over all levels.
func (g PGFT) TotalSwitches() int {
	n := 0
	for l := 1; l <= g.H; l++ {
		n += g.NumSwitches(l)
	}
	return n
}

// UpPorts returns the number of up-going ports of a node at level l
// (0 <= l < H): w_{l+1} * p_{l+1}.
func (g PGFT) UpPorts(l int) int {
	if l >= g.H {
		return 0
	}
	return g.W[l] * g.P[l]
}

// DownPorts returns the number of down-going ports of a node at level l
// (1 <= l <= H): m_l * p_l.
func (g PGFT) DownPorts(l int) int {
	if l < 1 {
		return 0
	}
	return g.M[l-1] * g.P[l-1]
}

// MProd returns prod_{i=1..l} m_i; MProd(0) == 1.
func (g PGFT) MProd(l int) int {
	n := 1
	for i := 1; i <= l; i++ {
		n *= g.M[i-1]
	}
	return n
}

// WProd returns prod_{i=1..l} w_i; WProd(0) == 1.
func (g PGFT) WProd(l int) int {
	n := 1
	for i := 1; i <= l; i++ {
		n *= g.W[i-1]
	}
	return n
}

// ConstantCBB reports whether the tree keeps a constant cross-bisectional
// bandwidth: at every internal level the aggregate down-going capacity of a
// node equals its aggregate up-going capacity, m_l*p_l == w_{l+1}*p_{l+1}
// for l = 1..H-1 (the first RLFT restriction, Section IV.C).
func (g PGFT) ConstantCBB() bool {
	for l := 1; l < g.H; l++ {
		if g.M[l-1]*g.P[l-1] != g.W[l]*g.P[l] {
			return false
		}
	}
	return true
}

// SingleHostUplink reports whether end-ports attach through exactly one
// cable: w_1 == 1 and p_1 == 1 (the second RLFT restriction).
func (g PGFT) SingleHostUplink() bool {
	return g.W[0] == 1 && g.P[0] == 1
}

// Arity returns the switch arity K (half the port count of a constant-radix
// switch) if the topology uses same-port-count switches everywhere, else
// (0, false). Leaf switches have m_1*p_1 down + w_2*p_2 up; the top level
// must expose 2K down-going ports (third RLFT restriction).
func (g PGFT) Arity() (int, bool) {
	if g.H == 1 {
		// Single-level "tree" is one layer of switches; arity is half
		// of its down port count when that count is even.
		d := g.DownPorts(1)
		if d%2 != 0 {
			return 0, false
		}
		return d / 2, true
	}
	k := g.M[0] * g.P[0] // leaf down ports
	for l := 1; l < g.H; l++ {
		if g.DownPorts(l) != k || g.UpPorts(l) != k {
			return 0, false
		}
	}
	if g.DownPorts(g.H) != 2*k {
		return 0, false
	}
	return k, true
}

// IsRLFT reports whether the spec satisfies all three Real Life Fat-Tree
// restrictions of Section IV.C, returning the switch arity K when it does.
func (g PGFT) IsRLFT() (int, bool) {
	if !g.ConstantCBB() || !g.SingleHostUplink() {
		return 0, false
	}
	return g.Arity()
}

// AllocationGranule returns the job-size granule of the contention-free
// guarantee: with randomly chosen end-ports, the rank-compacted D-Mod-K
// routing keeps the Shift CPS at HSD = 1 exactly when the job size is a
// multiple of prod(w_i) * p_h. This is the constant behind the paper's
// Section V remark that the maximal 3-level 36-port-switch RLFT admits
// congestion-free sub-allocations "in multiplications of 324 nodes":
// the Shift wrap-around stays aligned with the cyclic up-port assignment
// at every tree level only at these sizes.
func (g PGFT) AllocationGranule() int {
	return g.WProd(g.H) * g.Pi(g.H)
}

// String renders the canonical tuple notation.
func (g PGFT) String() string {
	return fmt.Sprintf("PGFT(%d;%s;%s;%s)", g.H, intList(g.M), intList(g.W), intList(g.P))
}

func intList(v []int) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s
}

// KAryNTree returns the classic k-ary-n-tree as a PGFT: n levels of
// switches with k children and k parents each (k^n hosts).
func KAryNTree(k, n int) (PGFT, error) {
	if k < 1 || n < 1 || n > MaxLevels {
		return PGFT{}, fmt.Errorf("topo: k-ary-n-tree wants positive k and 1 <= n <= %d, got k=%d n=%d", MaxLevels, k, n)
	}
	m := make([]int, n)
	w := make([]int, n)
	p := make([]int, n)
	for i := 0; i < n; i++ {
		m[i], w[i], p[i] = k, k, 1
	}
	w[0] = 1 // hosts have a single parent switch in the usual drawing
	return NewPGFT(n, m, w, p)
}

// MaximalRLFT returns the largest h-level RLFT buildable from 2K-port
// switches: m = (K,...,K,2K), w = (1,K,...,K), p = all ones. For example
// MaximalRLFT(3, 18) is RLFT(3;18,18,36;1,18,18;1,1,1) with 11664 hosts.
func MaximalRLFT(h, k int) (PGFT, error) {
	if h < 1 || h > MaxLevels || k < 1 {
		return PGFT{}, fmt.Errorf("topo: maximal RLFT wants 1 <= h <= %d and positive K, got h=%d K=%d", MaxLevels, h, k)
	}
	m := make([]int, h)
	w := make([]int, h)
	p := make([]int, h)
	for i := 0; i < h; i++ {
		m[i], w[i], p[i] = k, k, 1
	}
	m[h-1] = 2 * k
	w[0] = 1
	g, err := NewPGFT(h, m, w, p)
	if err != nil {
		return PGFT{}, err
	}
	if _, ok := g.IsRLFT(); !ok && h > 1 {
		return PGFT{}, fmt.Errorf("topo: internal error: %v is not an RLFT", g)
	}
	return g, nil
}

// RLFT2 builds a two-level RLFT from 2K-port switches holding exactly
// leaves*K hosts, using parallel ports to keep the spine switches fully
// populated (the Figure 4(b) construction). leaves must divide 2*K*K and
// K*leaves must be divisible by 2K (i.e. leaves even or K even).
func RLFT2(k, leaves int) (PGFT, error) {
	if k < 1 || leaves < 1 || leaves > 2*k {
		return PGFT{}, fmt.Errorf("topo: RLFT2 wants 1 <= leaves <= 2K, got K=%d leaves=%d", k, leaves)
	}
	// Each leaf has K up links; spines have 2K down ports, so the spine
	// count is leaves*K/(2K) = leaves/2 when leaves is even. Each spine
	// then connects to every leaf with p = 2K/leaves parallel links,
	// which must be integral.
	if (2*k)%leaves != 0 {
		return PGFT{}, fmt.Errorf("topo: RLFT2(K=%d, leaves=%d): 2K must be divisible by leaves", k, leaves)
	}
	p2 := 2 * k / leaves
	if k%p2 != 0 {
		return PGFT{}, fmt.Errorf("topo: RLFT2(K=%d, leaves=%d): parallel port count %d must divide K", k, leaves, p2)
	}
	w2 := k / p2
	return NewPGFT(2, []int{k, leaves}, []int{1, w2}, []int{1, p2})
}

// RLFT3 builds a three-level RLFT from 2K-port switches with
// K*K*topGroups hosts (topGroups <= 2K). Level-2 switches split their K up
// links across w3 = K/p3 spines with p3 = 2K/topGroups parallel links.
func RLFT3(k, topGroups int) (PGFT, error) {
	if k < 1 || topGroups < 1 || topGroups > 2*k {
		return PGFT{}, fmt.Errorf("topo: RLFT3 wants 1 <= topGroups <= 2K, got K=%d topGroups=%d", k, topGroups)
	}
	if (2*k)%topGroups != 0 {
		return PGFT{}, fmt.Errorf("topo: RLFT3(K=%d, groups=%d): 2K must be divisible by groups", k, topGroups)
	}
	p3 := 2 * k / topGroups
	if k%p3 != 0 {
		return PGFT{}, fmt.Errorf("topo: RLFT3(K=%d, groups=%d): parallel port count %d must divide K", k, topGroups, p3)
	}
	w3 := k / p3
	return NewPGFT(3, []int{k, k, topGroups}, []int{1, k, w3}, []int{1, 1, p3})
}

// The concrete cluster sizes studied in the paper's Figure 3 and Section II.
var (
	// Cluster128 is a 128-host two-level tree of 16-port switches
	// (16 leaves of 8 hosts): RLFT(2;8,16;1,8;1,1).
	Cluster128 = MustPGFT(2, []int{8, 16}, []int{1, 8}, []int{1, 1})
	// Cluster324 is a 324-host two-level tree of 36-port switches
	// (18 leaves of 18 hosts, 9 spines with 2 parallel links per leaf):
	// RLFT(2;18,18;1,9;1,2).
	Cluster324 = MustPGFT(2, []int{18, 18}, []int{1, 9}, []int{1, 2})
	// Cluster1728 is a 1728-host three-level tree of 24-port switches:
	// RLFT(3;12,12,12;1,12,6;1,1,2).
	Cluster1728 = MustPGFT(3, []int{12, 12, 12}, []int{1, 12, 6}, []int{1, 1, 2})
	// Cluster1944 is the paper's 1944-host three-level tree of 36-port
	// switches: RLFT(3;18,18,6;1,18,3;1,1,6).
	Cluster1944 = MustPGFT(3, []int{18, 18, 6}, []int{1, 18, 3}, []int{1, 1, 6})
)
