package route_test

// Stored columns ≡ rows: the tables keep D-Mod-K as two port vectors
// plus the destination columns a write stored, and every entry must read
// what a table of one row per node, written entry by entry, reads.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// rowTables is the reference: an entry per node and destination, hosts
// included, written the way per-node rows were.
type rowTables struct {
	t    *topo.Topology
	rows [][]topo.PortID // by node, by destination
}

func (r *rowTables) clone() *rowTables {
	c := &rowTables{t: r.t, rows: make([][]topo.PortID, len(r.rows))}
	for id, row := range r.rows {
		c.rows[id] = slices.Clone(row)
	}
	return c
}

// set is SetOutPort on rows: a single-uplink host has one entry for
// every destination but itself.
func (r *rowTables) set(id topo.NodeID, dst int, p topo.PortID) {
	node, row := r.t.Node(id), r.rows[id]
	if node.Kind != topo.Host || len(node.Up) > 1 {
		row[dst] = p
		return
	}
	for j := range row {
		if j != node.Index {
			row[j] = p
		}
	}
}

// cut is CutHost on rows.
func (r *rowTables) cut(h int) {
	row := r.rows[r.t.HostID(h)]
	for j := range row {
		row[j] = topo.None
	}
}

// agree fails unless f reads r at every node and destination.
func (r *rowTables) agree(t *testing.T, what string, f *route.LFT) {
	t.Helper()
	for id, row := range r.rows {
		for dst, want := range row {
			if got := f.OutPort(topo.NodeID(id), dst); got != want {
				t.Fatalf("%s: %v dst %d: port %d, rows say %d", what, r.t.Node(topo.NodeID(id)), dst, got, want)
			}
		}
	}
}

// write applies one seeded write to f and r alike: mostly SetOutPort of
// one of the node's ports or none, towards a destination from a small
// set so columns are written again, sometimes CutHost.
func (r *rowTables) write(rng *rand.Rand, f *route.LFT) {
	n := r.t.NumHosts()
	if rng.Intn(8) == 0 {
		h := rng.Intn(n)
		f.CutHost(h)
		r.cut(h)
		return
	}
	node := r.t.Node(topo.NodeID(rng.Intn(len(r.t.Nodes))))
	dst := rng.Intn(min(n, 6))
	if rng.Intn(2) == 0 {
		dst = rng.Intn(n)
	}
	if node.Kind == topo.Host && node.Index == dst {
		return // not an entry: the flow is delivered
	}
	ports := append([]topo.PortID{topo.None}, node.Up...)
	ports = append(ports, node.Down...)
	p := ports[rng.Intn(len(ports))]
	f.SetOutPort(node.ID, dst, p)
	r.set(node.ID, dst, p)
}

// TestStoredColumnsMatchRows holds plain, rank-compacted and naive
// D-Mod-K tables on seeded random fabrics (multi-uplink hosts included)
// to the row reference as built, then through seeded chains of clones,
// each written by SetOutPort and CutHost: the clone must read its own
// writes, its base must read as before, and both must still compile to
// what they walk.
func TestStoredColumnsMatchRows(t *testing.T) {
	multiUplink := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, g := range []topo.PGFT{invariant.RandPGFT(seed), invariant.RandRLFT(seed)} {
			if !g.SingleHostUplink() {
				multiUplink++
			}
			tp := topo.MustBuild(g)
			n := tp.NumHosts()
			var active []int
			for j := 0; j < n; j++ {
				if j%3 != int(seed)%3 {
					active = append(active, j)
				}
			}
			act, err := route.DModKActive(tp, active)
			if err != nil {
				t.Fatal(err)
			}
			rank, err := route.ActiveRanks(n, active)
			if err != nil {
				t.Fatal(err)
			}
			for i, tc := range []struct {
				lft  *route.LFT
				rows [][]topo.PortID
			}{
				{route.DModK(tp), closedFormDModK(tp, nil, false)},
				{act, closedFormDModK(tp, rank, false)},
				{route.DModKNaive(tp), closedFormDModK(tp, nil, true)},
			} {
				what := fmt.Sprintf("%v %s", g, tc.lft.Name)
				rng := rand.New(rand.NewSource(seed*10 + int64(i)))
				f, ref := tc.lft, &rowTables{t: tp, rows: tc.rows}
				ref.agree(t, what+" as built", f)
				for gen := 1; gen <= 3; gen++ {
					base, baseRef := f, ref
					f, ref = base.Clone(fmt.Sprintf("%s gen %d", base.Name, gen)), ref.clone()
					ref.agree(t, what+" cloned", f)
					for w := 0; w < 2+n/4; w++ {
						ref.write(rng, f)
					}
					ref.agree(t, fmt.Sprintf("%s after writes, gen %d", what, gen), f)
					baseRef.agree(t, fmt.Sprintf("%s base of gen %d", what, gen), base)
				}
				if seed <= 3 {
					differential(t, what+" written", f)
				}
			}
		}
	}
	if multiUplink == 0 {
		t.Fatal("no random fabric with multi-uplink hosts: their stored cells went untested")
	}
}

// TestCompileReadsStoredColumns: D-Mod-K tables with one column
// rewritten (every leaf above none of dst's hosts climbs through the next
// up port, a valid minimal path on a two-level tree) compile to the walk
// for every pair, so the arena walks the stored column — it stores it,
// and leaves the climb-only replay — and computes every other column
// from the vectors. An arena that took the closed form for every column
// of tables with vectors would serve the old climb towards dst.
func TestCompileReadsStoredColumns(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	healthy, lft := route.DModK(tp), route.DModK(tp)
	dst := tp.NumHosts() - 1
	moved := 0
	for _, id := range tp.ByLevel[1] {
		leaf := tp.Node(id)
		if p := lft.OutPort(id, dst); tp.Ports[p].Dir == topo.Up {
			lft.SetOutPort(id, dst, leaf.Up[(tp.Ports[p].Num+1)%len(leaf.Up)])
			moved++
		}
	}
	if moved == 0 || tp.Spec.H != 2 {
		t.Fatalf("%d leaves rewritten on a %d-level tree: the case tests nothing", moved, tp.Spec.H)
	}
	c, err := route.Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	checkArena(t, "one column rewritten", c, lft, false)
	if c.NumEntries() == 0 || c.ClimbWidth() != 0 {
		t.Fatalf("%d stored cells, climb width %d: want the column stored and no climb-only replay", c.NumEntries(), c.ClimbWidth())
	}
	want, _ := oracle(healthy, 0, dst)
	if got, _ := c.PackedPath(0, dst); slices.Equal(got, want) {
		t.Fatalf("0->%d reads the healthy path %v: the rewrite moved nothing", dst, got)
	}
}
