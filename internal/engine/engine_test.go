package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/fabric"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

func build324(t *testing.T) *topo.Topology {
	t.Helper()
	tp, err := topo.Build(topo.Cluster324)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func buildSmall(t *testing.T) *topo.Topology {
	t.Helper()
	g, err := topo.RLFT2(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Build(g)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// realEngines is the closed list of engine names, sorted.
var realEngines = []string{"dmodk", "dmodk-naive", "fault-resilient", "minhop-random", "smodk"}

func TestBuildUnknownListsNames(t *testing.T) {
	tp := buildSmall(t)
	_, err := Build("no-such-engine", tp, Options{})
	if err == nil {
		t.Fatal("Build accepted an unknown engine")
	}
	for _, name := range realEngines {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-engine error %q does not list %q", err, name)
		}
	}
}

// TestBuildDefaultAndActive: the empty name is Default, and an active
// set is the dmodk engine's alone — honoured as route.DModKActive's
// rank-compacted tables (healthy and rerouted), refused by every other
// engine and on malformed sets.
func TestBuildDefaultAndActive(t *testing.T) {
	tp := buildSmall(t)
	tb, err := Resolve("", tp, Options{}, nil)
	if err != nil || tb.LFT.Name != route.DModK(tp).Name {
		t.Fatalf(`Resolve("") = %v, %v; want the %s engine's tables`, tb, err, Default)
	}

	var half []int
	for h := 0; h < tp.NumHosts(); h += 2 {
		half = append(half, h)
	}
	want, err := route.DModKActive(tp, half)
	if err != nil {
		t.Fatal(err)
	}
	if tb, err = Resolve("", tp, Options{Active: half}, nil); err != nil {
		t.Fatal(err)
	}
	if tb.LFT.Name != want.Name {
		t.Fatalf("dmodk with an active set serves %s, not route.DModKActive's tables", tb.LFT.Name)
	}
	sameTables(t, "dmodk with an active set", want, tb.LFT)

	fs := fabric.NewFaultSet(tp)
	if err := fs.FailRandomFabricLinks(1, 3); err != nil {
		t.Fatal(err)
	}
	if tb, err = Resolve("", tp, Options{Active: half}, fs); err != nil {
		t.Fatal(err)
	}
	if got, want := tb.LFT.Name, "d-mod-k[16 active]-reroute[1 faults]"; got != want {
		t.Fatalf("rerouted label %q, want %q", got, want)
	}
	faultedCatalog(t, tp, tb, fs)

	for _, name := range realEngines[1:] {
		if _, err := Build(name, tp, Options{Active: half}); err == nil || !strings.Contains(err.Error(), "active set requires dmodk") {
			t.Errorf("%s with an active set: %v, want a refusal", name, err)
		}
	}
	for _, bad := range [][]int{{0, 0}, {0, 99}, {-1}} {
		if _, err := Build("dmodk", tp, Options{Active: bad}); err == nil {
			t.Errorf("malformed active set %v accepted", bad)
		}
	}
}

// TestNamesAndInfos: the listing and Build name the same closed list,
// sorted, each with a description, and every name builds.
func TestNamesAndInfos(t *testing.T) {
	tp := buildSmall(t)
	var names []string
	for _, info := range Infos() {
		names = append(names, info.Name)
		if info.Description == "" {
			t.Errorf("Info %+v has no description", info)
		}
		if _, err := Build(info.Name, tp, Options{}); err != nil {
			t.Errorf("listed engine %s does not build: %v", info.Name, err)
		}
	}
	if !slices.Equal(names, realEngines) {
		t.Errorf("Infos() lists %v, want %v", names, realEngines)
	}
}

// withoutThm2 filters Theorem-2 down-uniqueness out of the catalog, for
// routings that only promise it per source (S-Mod-K), not globally per
// down port.
func withoutThm2(t *testing.T) []invariant.Check {
	t.Helper()
	var out []invariant.Check
	for _, c := range invariant.Catalog() {
		if c.Name != "route.thm2-down-unique" {
			out = append(out, c)
		}
	}
	return out
}

// TestHealthyCatalog324 runs the full invariant catalog (routing
// totality, up*/down*, minimality, Theorem 2, contention-freedom of the
// Table-2 sequences — so Shift-HSD = 1) against every shipped engine on
// the healthy paper cluster. The fault-oblivious baselines are excluded
// where they are expected to fail (minhop-random is deliberately
// contention-prone), and source-spread S-Mod-K skips the global Theorem-2
// claim it never makes.
func TestHealthyCatalog324(t *testing.T) {
	tp := build324(t)
	for _, name := range []string{"dmodk", "smodk", "fault-resilient"} {
		t.Run(name, func(t *testing.T) {
			e, err := Build(name, tp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tb, err := e.Tables(nil)
			if err != nil {
				t.Fatal(err)
			}
			if tb.Compiled.NumBroken() != 0 || len(tb.Unroutable) != 0 || tb.BrokenPairs != 0 {
				t.Fatalf("healthy tables report damage: broken=%d unroutable=%v", tb.Compiled.NumBroken(), tb.Unroutable)
			}
			var checks []invariant.Check
			if name == "smodk" {
				checks = withoutThm2(t)
			}
			rep := invariant.Run(&invariant.Instance{Topo: tp, Router: tb.Compiled}, checks)
			if !rep.Pass {
				t.Fatalf("catalog failed: %v", rep.FailedNames())
			}
		})
	}
}

// TestHealthyShiftHSDOne pins the acceptance bar directly: on cluster324
// with zero faults both fault-aware engine names keep every Shift stage
// at HSD 1.
func TestHealthyShiftHSDOne(t *testing.T) {
	tp := build324(t)
	o := order.Topology(tp.NumHosts(), nil)
	for _, name := range []string{"dmodk", "fault-resilient"} {
		e, err := Build(name, tp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Tables(nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := hsd.Analyze(tb.Compiled, o, cps.Shift(tp.NumHosts()))
		if err != nil {
			t.Fatal(err)
		}
		if rep.MaxHSD() != 1 {
			t.Errorf("%s: Shift max HSD = %d, want 1", name, rep.MaxHSD())
		}
	}
}

// sameTables fails unless a and b agree entry for entry, read the way
// every walker reads them.
func sameTables(t *testing.T, what string, a, b *route.LFT) {
	t.Helper()
	for id := range a.T.Nodes {
		for j := 0; j < a.T.NumHosts(); j++ {
			if p, q := a.OutPort(topo.NodeID(id), j), b.OutPort(topo.NodeID(id), j); p != q {
				t.Fatalf("%s: node %d dst %d: %s has port %d, %s has %d", what, id, j, a.Name, p, b.Name, q)
			}
		}
	}
}

// TestConeTablesZeroFaults: the shared reroute primitive at zero faults
// reproduces the closed-form ranked tables exactly, for both the nil
// rank and the rank of a partial job, on single- and multi-uplink
// fabrics alike — host rows included.
func TestConeTablesZeroFaults(t *testing.T) {
	for _, tp := range []*topo.Topology{buildSmall(t), topo.MustBuild(multiUplink[0]), topo.MustBuild(multiUplink[1])} {
		n := tp.NumHosts()
		cols := make([]int, n)
		var third []int
		for j := range cols {
			cols[j] = j
			if j%3 == 0 {
				third = append(third, j)
			}
		}
		rank, err := route.ActiveRanks(n, third)
		if err != nil {
			t.Fatal(err)
		}
		active, err := route.DModKActive(tp, third)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			label string
			rank  []int
			want  *route.LFT
		}{{"identity", nil, route.DModK(tp)}, {"every-third", rank, active}} {
			want := tc.want
			got := route.NewLFT(tp, "reroute")
			label := fmt.Sprintf("%v %s", tp.Spec, tc.label)
			if res := fabric.NewFaultSet(tp).Reroute(got, tc.rank, cols); len(res.UnroutableHosts) != 0 || res.BrokenPairs != 0 {
				t.Fatalf("%s: damage %+v with no faults", label, res)
			}
			sameTables(t, label, want, got)
		}
	}
}

// faultedCatalog runs the catalog with the fault context filled the way
// ftcheck -engine does.
func faultedCatalog(t *testing.T, tp *topo.Topology, tb *fabric.Tables, fs *fabric.FaultSet) {
	t.Helper()
	unset := make(map[int]bool, len(tb.Unroutable))
	for _, u := range tb.Unroutable {
		unset[u] = true
	}
	rep := invariant.Run(&invariant.Instance{
		Topo:       tp,
		Router:     tb.Compiled,
		Unroutable: func(j int) bool { return unset[j] },
		Alive:      fs.Alive,
	}, nil)
	if !rep.Pass {
		t.Fatalf("faulted catalog failed: %v", rep.FailedNames())
	}
}

// TestFaultedCatalog runs every fault-aware engine through escalating
// fault sets and the full catalog: the repaired tables must stay total
// over served pairs, minimal, up*/down* and dead-link-free.
func TestFaultedCatalog(t *testing.T) {
	tp := build324(t)
	for _, name := range []string{"dmodk", "fault-resilient"} {
		e, err := Build(name, tp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, faults := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/%d-links", name, faults), func(t *testing.T) {
				fs := fabric.NewFaultSet(tp)
				if err := fs.FailRandomFabricLinks(faults, int64(faults)*7+1); err != nil {
					t.Fatal(err)
				}
				tb, err := e.Tables(fs)
				if err != nil {
					t.Fatal(err)
				}
				faultedCatalog(t, tp, tb, fs)
			})
		}
	}
}

// TestFaultResilientMatchesLenient: the repaired arena (the healthy one
// re-walked in the touched columns) must be indistinguishable from a full
// lenient compile of the same repaired tables — same broken set, same
// served paths — at the paper's 324-host scale.
func TestFaultResilientMatchesLenient(t *testing.T) {
	tp := build324(t)
	e, err := Build("fault-resilient", tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs := fabric.NewFaultSet(tp)
	if err := fs.FailRandomFabricLinks(1, 42); err != nil {
		t.Fatal(err)
	}
	tb, err := e.Tables(fs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := route.CompileLenient(tb.LFT)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Compiled.NumBroken() != want.NumBroken() {
		t.Fatalf("repatch broken=%d, full lenient compile broken=%d", tb.Compiled.NumBroken(), want.NumBroken())
	}
	n := tp.NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if tb.Compiled.Broken(src, dst) != want.Broken(src, dst) {
				t.Fatalf("pair %d->%d: repatch broken=%v, lenient=%v", src, dst, tb.Compiled.Broken(src, dst), want.Broken(src, dst))
			}
			if tb.Compiled.Broken(src, dst) {
				if _, err := tb.Compiled.PackedPath(src, dst); !errors.Is(err, route.ErrNoPath) {
					t.Fatalf("broken pair %d->%d: err = %v, want ErrNoPath", src, dst, err)
				}
				continue
			}
			a, err1 := tb.Compiled.PackedPath(src, dst)
			b, err2 := want.PackedPath(src, dst)
			if err1 != nil || err2 != nil {
				t.Fatalf("pair %d->%d: packed path errs %v / %v", src, dst, err1, err2)
			}
			if len(a) != len(b) {
				t.Fatalf("pair %d->%d: repatch path %d hops, lenient %d", src, dst, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("pair %d->%d hop %d: repatch %d, lenient %d", src, dst, i, a[i], b[i])
				}
			}
		}
	}
}

// TestFaultResilientLatency states the incremental repair's advantage
// over the whole-table recompute without a clock: after a 1-link fault
// the repaired tables and arena differ from the healthy base only inside
// the destination columns whose healthy entries crossed the dead link,
// and those columns — the slots the repair re-walks, once per row — are a
// small fraction of the fabric. The milliseconds live in the benchmark
// ledger (engine.tables_ms.dmodk / engine.tables_ms.fault-resilient).
func TestFaultResilientLatency(t *testing.T) {
	tp := build324(t)
	n := tp.NumHosts()
	e, err := Build("fault-resilient", tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := e.Tables(nil)
	if err != nil {
		t.Fatal(err)
	}
	fs := fabric.NewFaultSet(tp)
	if err := fs.FailRandomFabricLinks(1, 42); err != nil {
		t.Fatal(err)
	}
	tb, err := e.Tables(fs)
	if err != nil {
		t.Fatal(err)
	}
	lk := &tp.Links[fs.FailedLinks()[0]]
	lo, up := tp.Ports[lk.Lower].Node, tp.Ports[lk.Upper].Node
	dirty := 0
	for j := 0; j < n; j++ {
		crossed := healthy.LFT.OutPort(lo, j) == lk.Lower || healthy.LFT.OutPort(up, j) == lk.Upper
		if crossed {
			dirty++
			continue
		}
		for id := range tp.Nodes {
			if tb.LFT.OutPort(topo.NodeID(id), j) != healthy.LFT.OutPort(topo.NodeID(id), j) {
				t.Fatalf("column %d never crossed the dead link but node %d was re-pointed", j, id)
			}
		}
		for src := 0; src < n; src++ {
			got, err1 := tb.Compiled.PackedPath(src, j)
			want, err2 := healthy.Compiled.PackedPath(src, j)
			if err1 != nil || err2 != nil || !slices.Equal(got, want) {
				t.Fatalf("pair %d->%d never crossed the dead link but its path moved: %v (%v), healthy %v (%v)", src, j, got, err1, want, err2)
			}
		}
	}
	t.Logf("1-link fault dirties %d of %d columns", dirty, n)
	if dirty == 0 || dirty*8 > n {
		t.Errorf("repair re-walks %d of %d columns per row, want a small non-empty fraction (<= 1/8)", dirty, n)
	}
	// And the memory is proportional too: the healthy arena stores no
	// tail (the tables' closed form computes them), the repaired one
	// exactly the touched columns of every row.
	rows := map[int]bool{}
	for src := 0; src < n; src++ {
		row, _, _ := tb.Compiled.Row(src)
		rows[row] = true
	}
	if healthy.Compiled.NumEntries() != 0 {
		t.Errorf("healthy arena stores %d cells, want 0", healthy.Compiled.NumEntries())
	}
	if want := 26 * len(rows) * tb.Compiled.Stride(); dirty != 26 || tb.Compiled.NumEntries() != want {
		t.Errorf("repaired arena stores %d cells for %d touched columns, want 26 x %d rows x stride %d = %d",
			tb.Compiled.NumEntries(), dirty, len(rows), tb.Compiled.Stride(), want)
	}
}

// multiUplink are the hand-picked fabrics whose hosts have several
// uplinks, so every host keeps a row of choices.
var multiUplink = []topo.PGFT{
	topo.MustPGFT(2, []int{4, 3}, []int{2, 2}, []int{1, 1}), // w1 > 1: two leaves per host
	topo.MustPGFT(2, []int{3, 3}, []int{1, 2}, []int{2, 1}), // p1 > 1: two cables to one leaf
}

// TestRepairMatchesRebuild is "incremental repair == full rebuild" through
// engine.Build: over seeded random fabrics and the multi-uplink shapes, 1..6
// dead links (host uplinks included), then a fail -> revive -> fail
// sequence on the same FaultSet, every fault-aware engine configuration
// serves exactly the reference — fabric.Reroute over every column of fresh
// tables under the engine's rank, then route.CompileLenient — entry for
// entry and pair for pair, and the three broken-pair counts (engine,
// reroute, arena minus the pairs touching unroutable hosts) agree. The
// label is the healthy one plus "-reroute[N faults]". fabric's test of the
// same name holds (*FaultSet).Repair itself to the rebuild; this one holds
// Build to handing Repair the right healthy tables and rank. The subtest is
// the arena's one cell width.
func TestRepairMatchesRebuild(t *testing.T) { t.Run("32-bit cells", testRepairMatchesRebuild) }

func testRepairMatchesRebuild(t *testing.T) {
	specs := slices.Clone(multiUplink)
	for seed := int64(1); seed <= 16; seed++ {
		specs = append(specs, invariant.RandRLFT(seed), invariant.RandPGFT(seed))
	}
	for i, g := range specs {
		if g.NumHosts() > 400 {
			continue
		}
		tp := topo.MustBuild(g)
		n := tp.NumHosts()
		var half []int
		for h := 0; h < n; h += 2 {
			half = append(half, h)
		}
		activeRank, err := route.ActiveRanks(n, half)
		if err != nil {
			t.Fatal(err)
		}
		configs := []struct {
			name string
			opts Options
			rank []int
		}{
			{"dmodk", Options{}, nil},
			{"fault-resilient", Options{}, nil},
			{"dmodk", Options{Active: half}, activeRank},
		}
		engines := make([]Engine, len(configs))
		for k, cf := range configs {
			if engines[k], err = Build(cf.name, tp, cf.opts); err != nil {
				t.Fatal(err)
			}
		}
		all := make([]int, n)
		for j := range all {
			all[j] = j
		}
		check := func(what string, fs *fabric.FaultSet) {
			t.Helper()
			for k, cf := range configs {
				what := fmt.Sprintf("%s %s%+v", what, cf.name, cf.opts)
				tb, err := engines[k].Tables(fs)
				if err != nil {
					t.Fatal(err)
				}
				ref := route.NewLFT(tp, "reference")
				rr := fs.Reroute(ref, cf.rank, all)
				refC, err := route.CompileLenient(ref)
				if err != nil {
					t.Fatal(err)
				}
				healthy, err := engines[k].Tables(nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("%s-reroute[%d faults]", healthy.LFT.Name, fs.Failed()); fs.Failed() > 0 && tb.LFT.Name != want {
					t.Fatalf("%s: label %q, want %q", what, tb.LFT.Name, want)
				}
				u := len(rr.UnroutableHosts)
				if touching := 2*u*(n-1) - u*(u-1); tb.BrokenPairs != rr.BrokenPairs || tb.BrokenPairs != refC.NumBroken()-touching {
					t.Fatalf("%s: broken pairs: engine %d, reroute %d, arena %d - %d touching %d unroutable hosts",
						what, tb.BrokenPairs, rr.BrokenPairs, refC.NumBroken(), touching, u)
				}
				sameTables(t, what, ref, tb.LFT)
				if !slices.Equal(tb.Unroutable, rr.UnroutableHosts) {
					t.Fatalf("%s: unroutable %v, reroute has %v", what, tb.Unroutable, rr.UnroutableHosts)
				}
				sameArena(t, what, refC, tb.Compiled)
			}
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for k := 1; k <= 6; k++ {
			fs := fabric.NewFaultSet(tp)
			for _, l := range rng.Perm(len(tp.Links))[:min(k, len(tp.Links))] {
				fs.Fail(topo.LinkID(l))
			}
			check(fmt.Sprintf("%v links %v", g, fs.FailedLinks()), fs)
		}
		fs := fabric.NewFaultSet(tp)
		first, second := topo.LinkID(rng.Intn(len(tp.Links))), topo.LinkID(rng.Intn(len(tp.Links)))
		fs.Fail(first)
		check(fmt.Sprintf("%v fail %d", g, first), fs)
		fs.Revive(first)
		check(fmt.Sprintf("%v revive %d", g, first), fs)
		fs.Fail(second)
		fs.Fail(first)
		check(fmt.Sprintf("%v fail %d and %d", g, second, first), fs)
	}
}

// sameArena fails unless want and got serve every pair alike: the same
// broken bit and the same path.
func sameArena(t *testing.T, what string, want, got *route.Compiled) {
	t.Helper()
	if want.NumBroken() != got.NumBroken() {
		t.Fatalf("%s: %d broken pairs, want %d", what, got.NumBroken(), want.NumBroken())
	}
	var a, b []route.PathEntry
	n := want.Topology().NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			var err1, err2 error
			a, err1 = want.AppendPath(a[:0], src, dst)
			b, err2 = got.AppendPath(b[:0], src, dst)
			if want.Broken(src, dst) != got.Broken(src, dst) || (err1 == nil) != (err2 == nil) || !slices.Equal(a, b) {
				t.Fatalf("%s %d->%d: %v (%v), want %v (%v)", what, src, dst, b, err2, a, err1)
			}
		}
	}
}

// TestNoServedPathCrossesDeadUplink: on fabrics whose hosts have several
// uplinks, killing any one host's second uplink must leave every
// fault-aware engine serving no path over it — the host's other uplink
// carries its traffic, and its leaf-side entries towards it move too.
func TestNoServedPathCrossesDeadUplink(t *testing.T) {
	for _, g := range multiUplink {
		tp := topo.MustBuild(g)
		n := tp.NumHosts()
		for _, info := range Infos() {
			if !info.FaultAware {
				continue
			}
			e, err := Build(info.Name, tp, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for h := 0; h < n; h++ {
				dead := tp.Ports[tp.Host(h).Up[1]].Link
				fs := fabric.NewFaultSet(tp)
				fs.Fail(dead)
				tb, err := e.Tables(fs)
				if err != nil {
					t.Fatal(err)
				}
				if tb.Compiled.NumBroken() != 0 || len(tb.Unroutable) != 0 {
					t.Fatalf("%v %s, host %d's second uplink down: %d broken pairs, unroutable %v; its first uplink still serves",
						g, info.Name, h, tb.Compiled.NumBroken(), tb.Unroutable)
				}
				var path []route.PathEntry
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if path, err = tb.Compiled.AppendPath(path[:0], src, dst); err != nil {
							t.Fatal(err)
						}
						for _, e := range path {
							if route.EntryLink(e) == dead {
								t.Fatalf("%v %s: pair %d->%d crosses dead link %d (host %d's second uplink)", g, info.Name, src, dst, dead, h)
							}
						}
					}
				}
			}
		}
	}
}

// TestBrokenEngineFailsCatalog: the invariant harness must bite on an
// engine's tables with a forwarding hole (route.total).
func TestBrokenEngineFailsCatalog(t *testing.T) {
	tp := buildSmall(t)
	tb, err := Resolve(Default, tp, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lft := tb.LFT.Clone("broken-test")
	lft.SetOutPort(tp.ByLevel[1][0], 0, topo.None)
	rep := invariant.Run(&invariant.Instance{Topo: tp, Router: lft}, nil)
	if rep.Pass {
		t.Fatal("catalog passed tables with a forwarding hole")
	}
}
