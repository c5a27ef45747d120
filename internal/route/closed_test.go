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

// checkClimbKeys holds the climb keys of a certified arena to its tails:
// with every end-port its own rank, for each pair (src, dst) at every climb
// level, ClimbHop of src's source key and dst's destination key names the
// up-port cell of a link climbing from that level — even, and inside the
// 2*len(Links)+1 counters of a replay — whether or not the flow still
// climbs there, which is what lets a count add its climbing flag at that
// cell with no sink. For distinct end-ports the flow climbs exactly where
// Tail computes a cell, and there the hop's cell is Tail's.
func checkClimbKeys(t *testing.T, c *route.Compiled, pairs [][2]int) {
	t.Helper()
	tp := c.Topology()
	n, w := tp.NumHosts(), c.ClimbWidth()
	hostOf := make([]int, n)
	for h := range hostOf {
		hostOf[h] = h
	}
	src, dst := make([]uint64, w*n), make([]uint64, w*n)
	c.ClimbKeys(src, dst, hostOf)
	tail := make([]uint32, c.Stride())
	for _, p := range pairs {
		row, _, _ := c.Row(p[0])
		c.Tail(tail, row, p[1])
		for i := 0; i < w; i++ {
			cell, climbing := route.ClimbHop(src[i*n+p[0]], dst[i*n+p[1]])
			level := tp.Spec.H - w + i // the level this hop climbs from
			if cell%2 != 0 || cell < 2 || int(cell) > 2*len(tp.Links) || tp.Links[cell/2-1].Level != level+1 {
				t.Fatalf("%v: %d->%d at climb level %d: cell %d is not the up-port cell of a link from level %d", tp.Spec, p[0], p[1], i, cell, level)
			}
			if p[0] == p[1] {
				if climbing != 0 {
					t.Fatalf("%v: self pair %d at climb level %d climbs", tp.Spec, p[0], i)
				}
				continue
			}
			if want := int32(min(tail[i], 1)); climbing != want || climbing == 1 && cell != tail[i] {
				t.Fatalf("%v: %d->%d at climb level %d: ClimbHop (%d, %d), Tail %v", tp.Spec, p[0], p[1], i, cell, climbing, tail)
			}
		}
	}
}

// checkClosedForm compiles lft, which must store nothing, and compares
// the tail of every (row, dst) with the walk of the tables. When the arena
// certifies Theorem 2 it also holds the climb keys of every pair to the
// tails, and reports that it did.
func checkClosedForm(t *testing.T, lft *route.LFT) (keyed bool) {
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
	if c.ClimbWidth() == 0 {
		return false
	}
	var pairs [][2]int
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			pairs = append(pairs, [2]int{src, dst})
		}
	}
	checkClimbKeys(t, c, pairs)
	return true
}

// TestUpPortOfMatchesTablesQuick: for random (switch level, destination)
// samples on the 1728-node cluster, the built tables agree with equation
// (1); and on seeded random fabrics — hosts with several uplinks among
// them — every tail the arena computes from the tables' closed form is
// the walk of the tables, for D-Mod-K, its rank-compacted form over a
// partial job and the naive variant, and on the arenas among them that
// certify Theorem 2 so is every pair's ClimbHop.
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

	multi, keyed := false, false
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
				keyed = checkClosedForm(t, lft) || keyed
			}
		}
	}
	if !multi || !keyed {
		t.Fatalf("the draws missed a shape: hosts with several uplinks %v, a certified arena %v", multi, keyed)
	}
}

// TestClosedFormAtMaxScale: the 36-port 3-level maximum (11,664 end-ports,
// 32-bit cells) compiles D-Mod-K without storing a column, and a seeded
// sample of 10,000 pairs reads exactly the walk of the tables, and their
// climb keys (cells past 16 bits) the tails.
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
	var pairs [][2]int
	for i := 0; i < 10000; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		pairs = append(pairs, [2]int{src, dst})
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
	if c.ClimbWidth() == 0 {
		t.Fatalf("D-Mod-K at %v does not certify Theorem 2", g)
	}
	checkClimbKeys(t, c, pairs)
}
