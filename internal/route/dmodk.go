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

// dModK builds D-Mod-K tables; naive skips the division by prod(w_i).
func dModK(t *topo.Topology, rank []int, name string, naive bool) *LFT {
	f := newLFT(t, name)
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
	// on (l, j) alone: two vectors per level are the whole tables, which
	// store no column. Down ports are numbered after the level's u up
	// ports.
	v := &portVectors{up: make([]uint8, (g.H+1)*n), down: make([]uint8, (g.H+1)*n), n: n,
		below: make([]int, g.H+1), wprod: make([]int, g.H+1)}
	for l := 0; l <= g.H; l++ {
		v.below[l], v.wprod[l] = g.MProd(l), g.WProd(l)
		u := g.UpPorts(l)
		up, down := v.up[l*n:(l+1)*n], v.down[l*n:(l+1)*n]
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
	}
	f.vec = v
	return f
}
