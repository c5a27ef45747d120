package route

import (
	"math/rand"

	"fattree/internal/topo"
)

// MinHopRandom builds minimal-hop forwarding tables with uniformly random
// port choices: a valid but oblivious routing, representative of a subnet
// manager that balances nothing. Down-going entries keep the mandatory
// child digit but pick a random parallel copy, up-going entries pick any
// up port. Deterministic for a given seed.
func MinHopRandom(t *topo.Topology, seed int64) *LFT {
	r := rand.New(rand.NewSource(seed))
	f := NewLFT(t, "minhop-random")
	g := t.Spec
	n := t.NumHosts()
	for id := range t.Nodes {
		node := &t.Nodes[id]
		l, u := node.Level, len(node.Up)
		cell, row := id-f.off, f.HasRow(topo.NodeID(id)) // node's cell in every column
		for j := 0; j < n; j++ {
			switch {
			case node.Kind == topo.Host:
				if node.Index == j {
					continue
				}
				// A rowless host still draws: the stream stays what it was.
				if q := r.Intn(u); row {
					f.cols[j*f.w+cell] = uint8(q)
				}
			case t.IsDescendantHost(node, j):
				a := g.HostDigit(j, l)
				k := r.Intn(g.Pi(l))
				f.cols[j*f.w+cell] = uint8(u + a + k*g.Mi(l))
			default:
				f.cols[j*f.w+cell] = uint8(r.Intn(u))
			}
		}
	}
	return f
}

// DModKNaive is the broken variant of D-Mod-K that skips the division by
// prod(w_i): every level spreads by the raw destination index,
//
//	q = j mod (w_{l+1} * p_{l+1})
//
// which re-correlates flows above the leaves (all destinations passing a
// level-2 switch already share j mod w_2, so they pile onto few ports).
// Kept as an ablation baseline demonstrating why equation (1) divides.
func DModKNaive(t *topo.Topology) *LFT {
	return dModK(t, nil, "d-mod-k-naive", true)
}
