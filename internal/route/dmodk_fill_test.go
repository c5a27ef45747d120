package route_test

import (
	"testing"

	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// closedFormDModK is the per-entry definition of the D-Mod-K tables,
// equation (1) evaluated one (node, destination) at a time with the
// digit-by-digit descendant test — the shape the fill loop had before it
// was restructured around per-node index ranges. rank nil is the
// identity; naive drops the division by prod(w_i) (DModKNaive).
func closedFormDModK(t *topo.Topology, rank []int, naive bool) [][]topo.PortID {
	g := t.Spec
	wProd := g.WProd
	if naive {
		wProd = func(int) int { return 1 }
	}
	rnk := func(j int) int {
		if rank == nil {
			return j
		}
		return rank[j]
	}
	out := make([][]topo.PortID, len(t.Nodes))
	for id := range t.Nodes {
		node := &t.Nodes[id]
		l := node.Level
		row := make([]topo.PortID, t.NumHosts())
		for j := range row {
			switch {
			case node.Kind == topo.Host && node.Index == j:
				row[j] = topo.None
			case node.Kind == topo.Host:
				row[j] = node.Up[rnk(j)%(g.Wi(1)*g.Pi(1))]
			case t.IsDescendantHost(node, j):
				a := (j / g.MProd(l-1)) % g.Mi(l)
				k := (rnk(j) / wProd(l-1)) % (g.Wi(l) * g.Pi(l)) / g.Wi(l)
				row[j] = node.Down[a+k*g.Mi(l)]
			default:
				row[j] = node.Up[(rnk(j)/wProd(l))%(g.Wi(l+1)*g.Pi(l+1))]
			}
		}
		out[id] = row
	}
	return out
}

func sameTables(t *testing.T, what string, got *route.LFT, want [][]topo.PortID) {
	t.Helper()
	for id, row := range want {
		for j, p := range row {
			if q := got.OutPort(topo.NodeID(id), j); q != p {
				t.Fatalf("%s: node %v dst %d: port %d, closed form says %d", what, got.T.Node(topo.NodeID(id)), j, q, p)
			}
		}
	}
}

// TestDModKFillMatchesClosedForm pins the restructured fill loop to the
// closed form entry for entry, on the named clusters and on random PGFTs
// (which include w1*p1 > 1 hosts and non-CBB shapes), for plain, active
// and ranked tables.
func TestDModKFillMatchesClosedForm(t *testing.T) {
	specs := []topo.PGFT{topo.Cluster128, topo.Cluster324, topo.Cluster1728, topo.Cluster1944}
	multiUplink := 0
	for seed := int64(0); seed < 40; seed++ {
		g := invariant.RandPGFT(seed)
		if g.Wi(1)*g.Pi(1) > 1 {
			multiUplink++
		}
		specs = append(specs, g, invariant.RandRLFT(seed))
	}
	if multiUplink == 0 {
		t.Fatal("no random PGFT with w1*p1 > 1: the multi-uplink host rows went untested")
	}
	for i, g := range specs {
		tp := topo.MustBuild(g)
		n := tp.NumHosts()
		sameTables(t, g.String()+" dmodk", route.DModK(tp), closedFormDModK(tp, nil, false))
		if n > 1000 {
			continue // the two largest clusters: plain tables only
		}
		var active []int
		for j := 0; j < n; j++ {
			if (j*7+i)%3 != 0 {
				active = append(active, j)
			}
		}
		act, err := route.DModKActive(tp, active)
		if err != nil {
			t.Fatal(err)
		}
		rank := make([]int, n) // what activeRanks documents: active hosts below j
		k := 0
		for j, a := 0, 0; j < n; j++ {
			rank[j] = k
			if a < len(active) && active[a] == j {
				a++
				k++
			}
		}
		sameTables(t, g.String()+" active", act, closedFormDModK(tp, rank, false))
	}
}
