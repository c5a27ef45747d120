package route_test

// The closed form against the tables it stands for: every tail a compiled
// arena computes instead of storing must be the hop-by-hop walk of the
// forwarding tables from the row's first node.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// rowStart is the node src's row is walked from: its first switch when
// it shares a row, the host itself otherwise.
func rowStart(c *route.Compiled, src int) topo.NodeID {
	t := c.Topology()
	if _, _, shared := c.Row(src); shared {
		return t.PeerNode(t.Host(src).Up[0])
	}
	return t.HostID(src)
}

// walkTail is the oracle: the cells of the walk from a row's first node
// towards dst, zeros dropped.
func walkTail(t *testing.T, lft *route.LFT, from topo.NodeID, dst int) []uint32 {
	t.Helper()
	var cells []uint32
	err := route.WalkFrom(lft, from, dst, func(l topo.LinkID, up bool) {
		cells = append(cells, uint32(route.PackEntry(l, up)+1))
	})
	if err != nil {
		t.Fatalf("%s: walk from %v to %d: %v", lft.Name, lft.T.Node(from), dst, err)
	}
	return cells
}

// computed is c.Tail with its empty cells dropped.
func computed(c *route.Compiled, row, dst int) []uint32 {
	var out []uint32
	for _, e := range c.Tail(make([]uint32, c.Stride()), row, dst) {
		if e != 0 {
			out = append(out, e)
		}
	}
	return out
}

// checkClosedForm compiles lft, which must store nothing, and compares
// the tail of every (row, dst) with the walk of the tables.
func checkClosedForm(t *testing.T, lft *route.LFT) {
	t.Helper()
	c, err := route.Compile(lft)
	if err != nil {
		t.Fatalf("%v %s: %v", lft.T.Spec, lft.Name, err)
	}
	if c.NumEntries() != 0 {
		t.Fatalf("%v %s: healthy tables stored %d cells, want a closed form", lft.T.Spec, lft.Name, c.NumEntries())
	}
	n, stride := lft.T.NumHosts(), c.Stride()
	rows, dsts, batch := make([]int32, n), make([]int32, n), make([]uint32, n*stride)
	seen := map[int]bool{}
	for src := 0; src < n; src++ {
		row, _, _ := c.Row(src)
		if seen[row] {
			continue
		}
		seen[row] = true
		for dst := range dsts {
			rows[dst], dsts[dst] = int32(row), int32(dst)
		}
		c.Tails(batch, rows, dsts)
		from := rowStart(c, src)
		for dst := 0; dst < n; dst++ {
			got, want := computed(c, row, dst), walkTail(t, lft, from, dst)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v %s: row %d (from %v) towards %d: closed form %v, walk %v",
					lft.T.Spec, lft.Name, row, lft.T.Node(from), dst, got, want)
			}
			if one := c.Tail(make([]uint32, stride), row, dst); fmt.Sprint(one) != fmt.Sprint(batch[dst*stride:][:stride]) {
				t.Fatalf("%v %s: row %d towards %d: Tail %v, Tails %v", lft.T.Spec, lft.Name, row, dst, one, batch[dst*stride:][:stride])
			}
		}
	}
}

// TestUpPortOfMatchesTablesQuick: for random (switch level, destination)
// samples on the 1728-node cluster, the built tables agree with equation
// (1); and on seeded random fabrics — hosts with several uplinks among
// them — every tail the arena computes from the tables' closed form is
// the walk of the tables, for D-Mod-K, its rank-compacted form over a
// partial job and the naive variant.
func TestUpPortOfMatchesTablesQuick(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster1728)
	g := tp.Spec
	f := route.DModK(tp)
	check := func(raw uint32) bool {
		l := 1 + int(raw>>16)%(g.H-1) // levels 1..H-1 have up ports
		idx := int(raw>>8) % g.NumSwitches(l)
		j := int(raw) % tp.NumHosts()
		sw := tp.Node(tp.ByLevel[l][idx])
		if tp.IsDescendantHost(sw, j) {
			return true // down entries are covered by the tails below
		}
		out := f.OutPort(sw.ID, j)
		port := tp.Ports[out]
		return port.Dir == topo.Up && port.Num == route.UpPortOf(g, l, j)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}

	multi := false
	for seed := int64(1); seed <= 12; seed++ {
		for _, g := range []topo.PGFT{invariant.RandPGFT(seed), invariant.RandRLFT(seed)} {
			if g.NumHosts() > 300 {
				continue // every (row, dst): keep tier-1 fast
			}
			tp := topo.MustBuild(g)
			multi = multi || !g.SingleHostUplink()
			rng := rand.New(rand.NewSource(seed))
			active := rng.Perm(tp.NumHosts())[:1+rng.Intn(tp.NumHosts())]
			ranked, err := route.DModKActive(tp, active)
			if err != nil {
				t.Fatal(err)
			}
			for _, lft := range []*route.LFT{route.DModK(tp), ranked, route.DModKNaive(tp)} {
				checkClosedForm(t, lft)
			}
		}
	}
	if !multi {
		t.Fatal("no drawn fabric has hosts with several uplinks")
	}
}

// TestClosedFormAtMaxScale: the 36-port 3-level maximum (11,664 end-ports,
// 32-bit cells) compiles D-Mod-K without storing a column, and a seeded
// sample of 10,000 pairs reads exactly the walk of the tables.
func TestClosedFormAtMaxScale(t *testing.T) {
	g, err := topo.ParseSpec("max:3,18")
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.MustBuild(g)
	lft := route.DModK(tp)
	c, err := route.Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEntries() != 0 {
		t.Fatalf("D-Mod-K at %v stored %d cells, want 0", g, c.NumEntries())
	}
	n := tp.NumHosts()
	rng := rand.New(rand.NewSource(11664))
	var buf []route.PathEntry
	for i := 0; i < 10000; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		var want []route.PathEntry
		if err := lft.Walk(src, dst, func(l topo.LinkID, up bool) { want = append(want, route.PackEntry(l, up)) }); err != nil {
			t.Fatal(err)
		}
		buf, err = c.AppendPath(buf[:0], src, dst)
		if err != nil {
			t.Fatal(err)
		}
		samePath(t, "max:3,18", src, dst, buf, want)
	}
}
