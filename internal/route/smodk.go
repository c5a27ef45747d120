package route

import (
	"fmt"

	"fattree/internal/topo"
)

// SModK is the source-based mirror of D-Mod-K: the up-going port at a
// level-l node is chosen by the *source* index,
//
//	q = floor(src / prod_{i<=l} w_i) mod (w_{l+1} * p_{l+1})
//
// and the down path follows the destination's digits with the parallel
// copy pinned by the source. For permutation traffic it is exactly as
// contention free as D-Mod-K (the same arithmetic-sequence argument
// applies with the roles of source and destination swapped). Its fatal
// flaw is practical: the choice depends on the source, so it cannot be
// programmed into destination-routed hardware — an InfiniBand switch has
// one linear forwarding table keyed by destination LID. The paper's
// choice of D-Mod-K over the source-based family (studied by the related
// work it cites) is exactly this implementability argument; SModK exists
// here so the equivalence and the difference are both testable.
type SModK struct {
	T *topo.Topology
}

// NewSModK builds the source-based router for a topology.
func NewSModK(t *topo.Topology) *SModK { return &SModK{T: t} }

// Topology implements Router.
func (s *SModK) Topology() *topo.Topology { return s.T }

// Label implements Router.
func (s *SModK) Label() string { return "s-mod-k" }

// Walk implements Router: climb until an ancestor of dst is reached
// (spreading by source), then descend along dst's digits.
func (s *SModK) Walk(src, dst int, visit func(link topo.LinkID, up bool)) error {
	t := s.T
	g := t.Spec
	n := t.NumHosts()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return fmt.Errorf("route: s-mod-k: pair %d->%d out of range [0,%d)", src, dst, n)
	}
	if src == dst {
		return nil
	}
	top := g.LCALevel(src, dst)
	cur := t.Host(src)
	wprod := 1
	// Climb: at level l use the source-spread rule.
	for l := 0; l < top; l++ {
		q := (src / wprod) % (g.Wi(l+1) * g.Pi(l+1))
		pid := cur.Up[q]
		visit(t.Ports[pid].Link, true)
		cur = t.Node(t.PeerNode(pid))
		wprod *= g.Wi(l + 1)
	}
	// Descend: child digit from dst, parallel copy from src.
	wprod = g.WProd(top)
	for l := top; l >= 1; l-- {
		wprod /= g.Wi(l)
		a := (dst / g.MProd(l-1)) % g.Mi(l)
		k := (src / wprod) % (g.Wi(l) * g.Pi(l)) / g.Wi(l)
		r := a + k*g.Mi(l)
		pid := cur.Down[r]
		visit(t.Ports[pid].Link, false)
		cur = t.Node(t.PeerNode(pid))
	}
	if cur.Kind != topo.Host || cur.Index != dst {
		return fmt.Errorf("route: s-mod-k: %d->%d landed on %v", src, dst, cur)
	}
	return nil
}
