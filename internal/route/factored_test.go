package route_test

// The differential wall for the tail-shared arena: whatever the grouping
// did, every (src, dst) must read exactly what a hop-by-hop Walk of the
// inner router yields — path, broken bit, strict-mode error, NumBroken.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// oracle walks r hop by hop: the path, and whether a lenient compile may
// serve it (walked, and minimal).
func oracle(r route.Router, src, dst int) (path []route.PathEntry, servable bool) {
	err := r.Walk(src, dst, func(l topo.LinkID, up bool) {
		path = append(path, route.PackEntry(l, up))
	})
	return path, err == nil && len(path) == 2*r.Topology().Spec.LCALevel(src, dst)
}

func samePath(t *testing.T, what string, src, dst int, got, want []route.PathEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %d->%d: %d hops %v, walk has %d %v", what, src, dst, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %d->%d hop %d: entry %d, walk has %d", what, src, dst, i, got[i], want[i])
		}
	}
}

// checkArena compares every pair of c — every reader of it — against a
// hop-by-hop walk of r.
func checkArena(t *testing.T, what string, c *route.Compiled, r route.Router, lenient bool) {
	t.Helper()
	n := r.Topology().NumHosts()
	broken := 0
	buf := []route.PathEntry{-7} // AppendPath must append, not overwrite
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			path, err := c.AppendPath(buf, src, dst)
			if path[0] != -7 {
				t.Fatalf("%s %d->%d: AppendPath overwrote its buffer", what, src, dst)
			}
			path = path[1:]
			if src == dst {
				if err != nil || len(path) != 0 {
					t.Fatalf("%s: self pair %d: %d hops, err %v", what, src, len(path), err)
				}
				continue
			}
			want, served := oracle(r, src, dst)
			if !lenient && !served {
				t.Fatalf("%s: strict compile succeeded but %d->%d does not walk minimally", what, src, dst)
			}
			if c.Broken(src, dst) != !served {
				t.Fatalf("%s %d->%d: broken=%v, walk served=%v", what, src, dst, c.Broken(src, dst), served)
			}
			if !served {
				broken++
				if !errors.Is(err, route.ErrNoPath) || len(path) != 0 {
					t.Fatalf("%s: broken pair %d->%d: %d hops, err %v, want ErrNoPath", what, src, dst, len(path), err)
				}
				if _, err := c.PackedPath(src, dst); !errors.Is(err, route.ErrNoPath) {
					t.Fatalf("%s: broken pair %d->%d: PackedPath err %v, want ErrNoPath", what, src, dst, err)
				}
				if err := c.Walk(src, dst, func(topo.LinkID, bool) {}); !errors.Is(err, route.ErrNoPath) {
					t.Fatalf("%s: broken pair %d->%d: Walk err %v, want ErrNoPath", what, src, dst, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %d->%d: %v", what, src, dst, err)
			}
			samePath(t, what+" appended", src, dst, path, want)
			packed, err := c.PackedPath(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			samePath(t, what+" packed", src, dst, packed, want)
			replay, _ := oracle(c, src, dst)
			samePath(t, what+" walk", src, dst, replay, want)
		}
	}
	if c.NumBroken() != broken {
		t.Fatalf("%s: NumBroken %d, walk oracle counts %d", what, c.NumBroken(), broken)
	}
}

// differential compiles r both ways and checks each arena, plus the
// strict-mode contract: Compile errors exactly when some pair does not
// walk.
func differential(t *testing.T, what string, r route.Router) {
	t.Helper()
	n := r.Topology().NumHosts()
	unwalkable := false
	for src := 0; src < n && !unwalkable; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst && r.Walk(src, dst, func(topo.LinkID, bool) {}) != nil {
				unwalkable = true
				break
			}
		}
	}
	strict, err := route.CompileParallel(r, 3)
	if (err != nil) != unwalkable {
		t.Fatalf("%s: strict compile err %v, but unwalkable pair exists = %v", what, err, unwalkable)
	}
	if err == nil && strict.NumBroken() != 0 {
		t.Fatalf("%s: strict compile recorded %d broken pairs", what, strict.NumBroken())
	}
	lenient, err := route.CompileLenient(r)
	if err != nil {
		t.Fatalf("%s: lenient compile: %v", what, err)
	}
	checkArena(t, what+" lenient", lenient, r, true)
	if !unwalkable && lenient.NumBroken() == 0 {
		// A strict arena may hold non-minimal paths; only compare it
		// when the walk oracle's "served" is the whole truth.
		checkArena(t, what+" strict", strict, r, false)
	}
}

// TestFactoredMatchesWalk is the property: random fabrics x every router
// shape the arena groups differently.
func TestFactoredMatchesWalk(t *testing.T) { t.Run("32-bit cells", testFactoredMatchesWalk) }

func testFactoredMatchesWalk(t *testing.T) {
	var specs []topo.PGFT
	for seed := int64(1); seed <= 12; seed++ {
		specs = append(specs, invariant.RandPGFT(seed), invariant.RandRLFT(seed))
	}
	specs = append(specs,
		topo.MustPGFT(2, []int{4, 3}, []int{2, 2}, []int{1, 1}), // w1 > 1: two leaves per host
		topo.MustPGFT(2, []int{3, 3}, []int{1, 2}, []int{2, 1}), // p1 > 1: two cables to one leaf
		topo.MustPGFT(1, []int{1}, []int{1}, []int{1}),          // one host: no pairs at all
	)
	for i, g := range specs {
		if g.NumHosts() > 150 {
			continue // all-pairs x five routers x three readers: keep tier-1 fast
		}
		tp := topo.MustBuild(g)
		name := fmt.Sprintf("%v", g)
		differential(t, name+" dmodk", route.DModK(tp))
		differential(t, name+" smodk", route.NewSModK(tp))
		differential(t, name+" minhop-random", route.MinHopRandom(tp, int64(i)))

		fs := fabric.NewFaultSet(tp)
		links := len(tp.Links)
		fs.Fail(topo.LinkID((7 * i) % links))
		fs.Fail(topo.LinkID((13*i + 5) % links))
		rerouted, _, err := fs.RouteAround()
		if err != nil {
			t.Fatal(err)
		}
		differential(t, name+" route-around", rerouted)

		tb, err := engine.Resolve("dmodk", tp, engine.Options{}, fs)
		if err != nil {
			t.Fatal(err)
		}
		checkArena(t, name+" dmodk repaired", tb.Compiled, tb.LFT, true)
	}
}

// TestFactoredTraps pins the cases where sharing a row could leak one
// source's fate onto its leaf-mates: on each arena as compiled, which the
// closed form serves where the tables have one, and again in "32-bit
// cells" with every column re-walked into stored cells by Repatch, the
// way a fault repair writes them.
func TestFactoredTraps(t *testing.T) {
	testFactoredTraps(t, false)
	t.Run("32-bit cells", func(t *testing.T) { testFactoredTraps(t, true) })
}

func testFactoredTraps(t *testing.T, stored bool) {
	g, err := topo.RLFT3(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.MustBuild(g)
	n := tp.NumHosts()

	// cells returns c, or, when the traps read stored cells, c with every
	// column re-walked under r into its cells.
	cells := func(t *testing.T, c *route.Compiled, r route.Router) *route.Compiled {
		t.Helper()
		if !stored {
			return c
		}
		every := make([]int, r.Topology().NumHosts())
		rows := 0
		for h := range every {
			every[h] = h
			row, _, _ := c.Row(h)
			rows = max(rows, row+1)
		}
		p, err := c.Repatch(r, every)
		if err != nil {
			t.Fatal(err)
		}
		if want := rows * len(every) * p.Stride(); p.NumEntries() != want {
			t.Fatalf("%s: %d stored cells, want every column: %d", p.Label(), p.NumEntries(), want)
		}
		return p
	}
	lenient := func(t *testing.T, r route.Router) *route.Compiled {
		t.Helper()
		c, err := route.CompileLenient(r)
		if err != nil {
			t.Fatal(err)
		}
		return cells(t, c, r)
	}
	diff := func(t *testing.T, what string, r route.Router) {
		t.Helper()
		differential(t, what, r)
		if stored {
			checkArena(t, what+" stored", lenient(t, r), r, true)
		}
	}

	t.Run("destination on the source's own leaf", func(t *testing.T) {
		lft := route.DModK(tp)
		c, err := route.Compile(lft)
		if err != nil {
			t.Fatal(err)
		}
		c = cells(t, c, lft)
		mates := tp.HostsUnder(tp.LeafOf(0))
		src, dst := mates[0], mates[1]
		path, err := c.PackedPath(src, dst)
		if _, _, shared := c.Row(src); err != nil || len(path) != 2 || !shared {
			t.Fatalf("%d->%d: path %v shared %v err %v, want a head and a one-hop tail", src, dst, path, shared, err)
		}
		if !route.EntryUp(path[0]) || route.EntryUp(path[1]) {
			t.Fatalf("%d->%d: directions %v then %v, want up then down", src, dst, route.EntryUp(path[0]), route.EntryUp(path[1]))
		}
		// The row also stores a tail towards its own first source; the
		// self pair must not read it.
		if path, err := c.PackedPath(src, src); err != nil || len(path) != 0 {
			t.Fatalf("self pair reads %v, err %v", path, err)
		}
	})

	t.Run("first host of a leaf loses its only uplink", func(t *testing.T) {
		fs := fabric.NewFaultSet(tp)
		fs.Fail(tp.Ports[tp.Host(0).Up[0]].Link)
		lft, res, err := fs.RouteAround()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.UnroutableHosts) != 1 || res.UnroutableHosts[0] != 0 {
			t.Fatalf("unroutable = %v, want [0]", res.UnroutableHosts)
		}
		diff(t, "dead first host", lft)
		c := lenient(t, lft)
		if want := 2 * (n - 1); c.NumBroken() != want {
			t.Fatalf("NumBroken = %d, want %d: exactly the pairs touching host 0", c.NumBroken(), want)
		}
		if mate := tp.HostsUnder(tp.LeafOf(0))[1]; c.Broken(mate, n-1) {
			t.Fatalf("leaf-mate %d of the dead host lost its path to %d", mate, n-1)
		}
	})

	// Only a host with several uplinks keeps a row to damage: two leaves
	// per host here.
	multi := topo.MustBuild(topo.MustPGFT(2, []int{4, 3}, []int{2, 2}, []int{1, 1}))

	t.Run("one host-row entry knocked out", func(t *testing.T) {
		lft := route.DModK(multi)
		src, dst := 1, multi.NumHosts()-2
		lft.SetOutPort(multi.HostID(src), dst, topo.None)
		if _, err := route.Compile(lft); err == nil {
			t.Fatal("strict compile accepted a table with a missing host entry")
		}
		diff(t, "host-row hole", lft)
		c := lenient(t, lft)
		if c.NumBroken() != 1 || !c.Broken(src, dst) {
			t.Fatalf("NumBroken = %d, Broken(%d,%d) = %v: want exactly that pair", c.NumBroken(), src, dst, c.Broken(src, dst))
		}
	})

	t.Run("host-row entry past the port count", func(t *testing.T) {
		// An entry is a port number on its node; one past the node's last
		// port (SetOutPort cannot write it) fails the walk, and breaks that
		// pair and nothing else.
		lft := route.DModK(multi)
		src, dst := 2, multi.NumHosts()-1
		route.SetEntry(lft, multi.HostID(src), dst, uint8(multi.Host(src).NumPorts()))
		if err := lft.Walk(src, dst, func(topo.LinkID, bool) {}); err == nil || !strings.Contains(err.Error(), "names port 2 of 2") {
			t.Fatalf("walk over an entry past the port count: err %v", err)
		}
		diff(t, "entry past the port count", lft)
		c := lenient(t, lft)
		if c.NumBroken() != 1 || !c.Broken(src, dst) {
			t.Fatalf("NumBroken = %d, Broken(%d,%d) = %v: want exactly that pair", c.NumBroken(), src, dst, c.Broken(src, dst))
		}
	})

	t.Run("one leaf entry knocked out", func(t *testing.T) {
		// A single-uplink host has no entry of its own to lose: the hole
		// is at its leaf, one hop on, and takes the leaf-mates with it.
		lft := route.DModK(tp)
		leaf, dst := tp.LeafOf(1), n-2
		lft.SetOutPort(leaf.ID, dst, topo.None)
		if _, err := route.Compile(lft); err == nil {
			t.Fatal("strict compile accepted a table with a missing leaf entry")
		}
		diff(t, "leaf hole", lft)
		c := lenient(t, lft)
		mates := tp.HostsUnder(leaf)
		if c.NumBroken() != len(mates) {
			t.Fatalf("NumBroken = %d, want the %d hosts under the leaf", c.NumBroken(), len(mates))
		}
		for _, src := range mates {
			if !c.Broken(src, dst) {
				t.Fatalf("%d->%d is served through a leaf with no entry", src, dst)
			}
		}
	})

	t.Run("a host cut off", func(t *testing.T) {
		lft := route.DModK(tp)
		lft.CutHost(1)
		if lft.OutPort(tp.HostID(1), 0) != topo.None {
			t.Fatal("a cut-off host still forwards")
		}
		if _, err := route.Compile(lft); err == nil {
			t.Fatal("strict compile accepted a cut-off host")
		}
		diff(t, "cut-off host", lft)
		c := lenient(t, lft)
		if c.NumBroken() != n-1 || c.Broken(0, 1) {
			t.Fatalf("NumBroken = %d, Broken(0,1) = %v: want exactly the pairs from host 1", c.NumBroken(), c.Broken(0, 1))
		}
	})

	t.Run("non-minimal detour on one pair", func(t *testing.T) {
		diff(t, "detour", &detour{Router: route.DModK(tp), src: 0, dst: n - 1})
	})
}

// TestRepatchNeverRevives pins the lenient contract of the row-level
// repair: pairs broken in the receiver stay broken even when the inner
// router could now walk them, and a host the repaired tables cut off
// breaks every pair it sends, in every column, named or not.
func TestRepatchNeverRevives(t *testing.T) { t.Run("32-bit cells", testRepatchNeverRevives) }

func testRepatchNeverRevives(t *testing.T) {
	tp := buildRLFT(t, "rlft2:4,8")
	n := tp.NumHosts()
	holed := route.DModK(tp)
	mates := len(tp.HostsUnder(tp.LeafOf(1)))
	holed.SetOutPort(tp.LeafOf(1).ID, 9, topo.None) // one hole at a leaf: its hosts lose 9
	for _, sw := range tp.Nodes[n:] {               // and one unreachable column
		holed.SetOutPort(sw.ID, 20, topo.None)
	}
	base, err := route.CompileLenient(holed)
	if err != nil {
		t.Fatal(err)
	}
	if want := mates + (n - 1); base.NumBroken() != want {
		t.Fatalf("base NumBroken = %d, want %d", base.NumBroken(), want)
	}
	healthy := route.DModK(tp)
	healthy.CutHost(5)
	p, err := base.Repatch(healthy, []int{9, 20})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			want := base.Broken(src, dst) || src == 5
			if p.Broken(src, dst) != want {
				t.Fatalf("%d->%d: patched broken=%v, want %v", src, dst, p.Broken(src, dst), want)
			}
			if !want {
				got, err := p.PackedPath(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				path, _ := oracle(healthy, src, dst)
				samePath(t, "patched", src, dst, got, path)
			}
		}
	}
	if base.Broken(5, 6) || base.NumBroken() != mates+n-1 {
		t.Fatal("Repatch modified its receiver")
	}
	if _, err := base.Repatch(route.NewSModK(tp), []int{9}); err == nil {
		t.Fatal("Repatch walked shared rows through a router without forwarding tables")
	}
}

// TestRepatchMatchesLenient re-walks every column of a healthy arena
// through rerouted tables: the result must equal a fresh lenient compile
// pair for pair, and the receiver must still serve the healthy paths.
func TestRepatchMatchesLenient(t *testing.T) { t.Run("32-bit cells", testRepatchMatchesLenient) }

func testRepatchMatchesLenient(t *testing.T) {
	tp := buildRLFT(t, "rlft3:2,4")
	n := tp.NumHosts()
	healthy := route.DModK(tp)
	base, err := route.Compile(healthy)
	if err != nil {
		t.Fatal(err)
	}
	fs := fabric.NewFaultSet(tp)
	if err := fs.FailRandomFabricLinks(3, 11); err != nil {
		t.Fatal(err)
	}
	rerouted, _, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	rerouted.CutHost(2) // a head the repair must notice
	all := make([]int, n)
	for j := range all {
		all[j] = j
	}
	p, err := base.Repatch(rerouted, all)
	if err != nil {
		t.Fatal(err)
	}
	checkArena(t, "repatched", p, rerouted, true)
	if !p.Broken(2, 7) || p.Broken(7, 2) {
		t.Fatal("Repatch must break exactly the pairs whose first hop the repaired tables dropped")
	}
	checkArena(t, "receiver after Repatch", base, healthy, false)

	// Private rows: a repaired router that detours one pair breaks it.
	sbase, err := route.Compile(route.NewSModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sbase.Repatch(&detour{Router: route.NewSModK(tp), src: 0, dst: n - 1}, []int{n - 1})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumBroken() != 1 || !sp.Broken(0, n-1) {
		t.Fatalf("NumBroken = %d, Broken(0,%d) = %v: want exactly the detoured pair", sp.NumBroken(), n-1, sp.Broken(0, n-1))
	}

	// Unchanged tables, one column: the repair equals the receiver's own
	// lenient compile and stores exactly one column more — rows x stride
	// cells over a closed form, which stored none, and none over an arena
	// that already stores every column.
	random, err := route.Compile(route.MinHopRandom(tp, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*route.Compiled{base, random} {
		p, err := c.Repatch(c.Inner(), []int{3})
		if err != nil {
			t.Fatal(err)
		}
		checkArena(t, c.Label()+" repatched in place", p, c.Inner(), true)
		rows := 0
		for src := 0; src < n; src++ {
			row, _, _ := c.Row(src)
			rows = max(rows, row+1)
		}
		if want := max(c.NumEntries(), rows*c.Stride()); p.NumEntries() != want {
			t.Fatalf("%s: Repatch of one column stores %d cells, want %d", c.Label(), p.NumEntries(), want)
		}
	}
}

// TestAppendPathDoesNotAllocate guards the per-pair reader into a reused
// buffer and Walk's replay, and that compiling costs O(rows) allocations.
func TestAppendPathDoesNotAllocate(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	c, err := route.Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	buf := make([]route.PathEntry, 0, c.Stride()+1)
	if a := testing.AllocsPerRun(100, func() {
		for dst := 0; dst < 324; dst += 7 {
			path, _ := c.AppendPath(buf[:0], 200, dst)
			sink += len(path)
			_ = c.Walk(200, dst, func(topo.LinkID, bool) { sink++ })
		}
	}); a != 0 {
		t.Fatalf("AppendPath and Walk allocate %v times per run", a)
	}
	rows := tp.Spec.NumSwitches(1) // one row per leaf
	if a := testing.AllocsPerRun(5, func() {
		if _, err := route.CompileParallel(lft, 1); err != nil {
			t.Fatal(err)
		}
	}); a > float64(4*rows+32) {
		t.Fatalf("Compile allocates %v times for %d rows: per-walk allocations are back", a, rows)
	}
}

// TestFactoredConcurrentReaders hammers one arena (with shared rows and
// broken pairs) from many goroutines; run under -race it pins the
// immutability contract.
func TestFactoredConcurrentReaders(t *testing.T) {
	t.Run("32-bit cells", testFactoredConcurrentReaders)
}

func testFactoredConcurrentReaders(t *testing.T) {
	tp := buildRLFT(t, "rlft2:4,8")
	fs := fabric.NewFaultSet(tp)
	fs.Fail(tp.Ports[tp.Host(3).Up[0]].Link)
	lft, _, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	c, err := route.CompileLenient(lft)
	if err != nil {
		t.Fatal(err)
	}
	n := tp.NumHosts()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for src := g % n; src < n; src += 3 {
				for dst := 0; dst < n; dst++ {
					want, served := oracle(lft, src, dst)
					path, err := c.AppendPath(nil, src, dst)
					if src == dst || !served {
						if len(path) != 0 {
							t.Errorf("%d->%d: unexpected hops", src, dst)
						}
						continue
					}
					if err != nil || len(path) != len(want) {
						t.Errorf("%d->%d: %d hops, err %v, want %d", src, dst, len(path), err, len(want))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
