package route

import (
	"fmt"
	"sort"

	"fattree/internal/topo"
)

// DModK builds the D-Mod-K forwarding tables of equation (1) for a fully
// populated tree: at a level-l node, traffic towards a non-descendant
// destination j leaves through up port
//
//	q = floor(j / prod_{i<=l} w_i) mod (w_{l+1} * p_{l+1})
//
// and traffic towards a descendant j leaves through the down port selected
// by j's child digit at that level, on the parallel copy the up-going rule
// would have used one level below — which makes the down path to every
// destination unique (Theorem 2).
func DModK(t *topo.Topology) *LFT {
	return dModK(t, nil, "d-mod-k", false)
}

// DModKActive builds the rank-compacted D-Mod-K tables for a partially
// populated tree running a job on the given active end-ports (ascending
// order not required). Duplicate or out-of-range hosts — the kind of
// malformed active set a hand-edited topology file produces — are
// reported as errors rather than crashing the caller.
// The spreading index of destination j is its rank among the active hosts
// rather than its raw index, which is how the production subnet-manager
// variant ("enhanced to handle real-life fat-trees") keeps the cyclic
// up-port assignment gap-free when hosts are missing. Inactive
// destinations still get consistent entries (routed by the same rule).
func DModKActive(t *topo.Topology, active []int) (*LFT, error) {
	rank, err := ActiveRanks(t.NumHosts(), active)
	if err != nil {
		return nil, err
	}
	return dModK(t, rank, fmt.Sprintf("d-mod-k[%d active]", len(active)), false), nil
}

// DModKRanked builds D-Mod-K tables spreading destinations by an
// arbitrary rank table instead of the raw index: rank[j] replaces j in
// every up-port and parallel-copy choice while the mandatory down-going
// child digits keep following j's real address, so delivery is unchanged
// and only the load spreading moves. DModKActive is the special case
// ranking by position among the active hosts; the node-type
// load-balancing engine ranks by position within each destination's node
// type. A nil rank is the identity (plain DModK).
func DModKRanked(t *topo.Topology, rank []int, name string) (*LFT, error) {
	if rank != nil && len(rank) != t.NumHosts() {
		return nil, fmt.Errorf("route: rank table has %d entries for %d hosts", len(rank), t.NumHosts())
	}
	return dModK(t, rank, name, false), nil
}

// ActiveRanks maps each host index to its rank among the sorted active
// set; inactive hosts get the rank they would have if inserted (count of
// active hosts below them), keeping the rule monotone.
func ActiveRanks(n int, active []int) ([]int, error) {
	as := append([]int(nil), active...)
	sort.Ints(as)
	for i := 1; i < len(as); i++ {
		if as[i] == as[i-1] {
			return nil, fmt.Errorf("route: duplicate active host %d", as[i])
		}
	}
	if len(as) > 0 && (as[0] < 0 || as[len(as)-1] >= n) {
		return nil, fmt.Errorf("route: active host out of range [0,%d)", n)
	}
	rank := make([]int, n)
	k := 0
	for j := 0; j < n; j++ {
		if k < len(as) && as[k] == j {
			rank[j] = k
			k++
		} else {
			rank[j] = k
		}
	}
	return rank, nil
}

// dModK fills D-Mod-K tables; naive skips the division by prod(w_i).
func dModK(t *topo.Topology, rank []int, name string, naive bool) *LFT {
	f := NewLFT(t, name)
	g := t.Spec
	n := t.NumHosts()
	wProd := g.WProd
	if naive {
		wProd = func(int) int { return 1 }
	}
	if rank == nil {
		rank = make([]int, n)
		for j := range rank {
			rank[j] = j
		}
	}
	// The up and the down port number a level-l node uses towards j depend
	// on (l, j) alone: two vectors per level, and every row is copied out of
	// them. Down ports are numbered after the level's u up ports.
	up, down := make([]uint8, n), make([]uint8, n)
	for l := 0; l <= g.H; l++ {
		u := g.UpPorts(l)
		if l < g.H { // equation (1)
			wHere := wProd(l)
			for j := range up {
				up[j] = uint8(rank[j] / wHere % u)
			}
		}
		if l > 0 { // child digit, on the parallel copy the level-(l-1) up rule uses
			ml, wl, wpl := g.Mi(l), g.Wi(l), g.Wi(l)*g.Pi(l)
			mBelow, wBelow := g.MProd(l-1), wProd(l-1)
			for j := range down {
				down[j] = uint8(u + j/mBelow%ml + rank[j]/wBelow%wpl/wl*ml)
			}
		}
		for _, id := range t.ByLevel[l] {
			row := f.rows[id]
			if row == nil {
				continue // a single-uplink host: NewLFT wrote its one entry
			}
			// The hosts below a level-l node are the contiguous range [lo, hi):
			// its digits above l fix the high part (a host: itself, delivered).
			node := &t.Nodes[id]
			lo := 0
			for i := l + 1; i <= g.H; i++ {
				lo += node.Digits[i-1] * g.MProd(i-1)
			}
			hi := lo + g.MProd(l)
			if l > 0 {
				copy(row[lo:hi], down[lo:hi])
			}
			if l < g.H { // every host descends from a top switch
				copy(row[:lo], up[:lo])
				copy(row[hi:], up[hi:])
			}
		}
	}
	return f
}
