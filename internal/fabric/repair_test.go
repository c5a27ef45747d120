package fabric_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fattree/internal/fabric"
	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// healthy is fabric.Healthy that fails the test on error.
func healthy(t *testing.T, rt route.Router) *fabric.Tables {
	t.Helper()
	tb, err := fabric.Healthy(rt)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// faultedCatalog runs the invariant catalog with the fault context filled
// the way ftcheck -reroute does.
func faultedCatalog(t *testing.T, tp *topo.Topology, tb *fabric.Tables, fs *fabric.FaultSet) {
	t.Helper()
	rep := invariant.Run(&invariant.Instance{
		Topo:       tp,
		Router:     tb.Compiled,
		Unroutable: func(j int) bool { return slices.Contains(tb.Unroutable, j) },
		Alive:      fs.Alive,
	}, nil)
	if !rep.Pass {
		t.Fatalf("faulted catalog failed: %v", rep.FailedNames())
	}
}

// correlatedFaults builds three fault shapes of a seeded storm on tp: one
// random fabric link, every down link of one top switch (a bricked
// spine), and half of leaf 0's uplinks plus one random fabric link (a
// cut cable bundle beside an unrelated failure).
func correlatedFaults(t *testing.T, tp *topo.Topology, seed int64) []faultShape {
	t.Helper()
	one := fabric.NewFaultSet(tp)
	if err := one.FailRandomFabricLinks(1, seed); err != nil {
		t.Fatal(err)
	}
	spine := fabric.NewFaultSet(tp)
	top := tp.ByLevel[tp.Spec.H]
	for _, pid := range tp.Node(top[int(seed)%len(top)]).Down {
		spine.Fail(tp.Ports[pid].Link)
	}
	leafSpine := fabric.NewFaultSet(tp)
	for i, pid := range tp.Node(tp.ByLevel[1][0]).Up {
		if i%2 == 0 {
			leafSpine.Fail(tp.Ports[pid].Link)
		}
	}
	if err := leafSpine.FailRandomFabricLinks(1, seed+1); err != nil {
		t.Fatal(err)
	}
	return []faultShape{{"1-link", one}, {"spine-switch", spine}, {"leaf-spine", leafSpine}}
}

type faultShape struct {
	name string
	fs   *fabric.FaultSet
}

// TestRerouteSurvivesCorrelatedFaults: through every shape of a
// correlated fault storm, on a small fabric and the paper cluster, the
// repair of D-Mod-K leaves every host routable and every pair served,
// over tables that pass the faulted catalog. The fault-oblivious
// dmodk-naive refused over the same dead links is the negative control:
// it must lose pairs on every shape, or the shape tests nothing.
func TestRerouteSurvivesCorrelatedFaults(t *testing.T) {
	small, err := topo.RLFT2(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []topo.PGFT{small, topo.Cluster324} {
		tp := topo.MustBuild(g)
		dmodk, naive := healthy(t, route.DModK(tp)), healthy(t, route.DModKNaive(tp))
		for _, seed := range []int64{1, 3, 7, 11} {
			for _, shape := range correlatedFaults(t, tp, seed) {
				fs := shape.fs
				what := fmt.Sprintf("%v seed %d %s (%d dead links)", g, seed, shape.name, fs.Failed())
				tb, err := fs.Repair(dmodk, nil)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if len(tb.Unroutable) != 0 || tb.BrokenPairs != 0 || tb.Compiled.NumBroken() != 0 {
					t.Fatalf("%s: unroutable %v, %d broken pairs, arena broken %d; want every pair served",
						what, tb.Unroutable, tb.BrokenPairs, tb.Compiled.NumBroken())
				}
				faultedCatalog(t, tp, tb, fs)
				if tb, err = fs.Refuse(naive); err != nil {
					t.Fatalf("%s dmodk-naive: %v", what, err)
				}
				if tb.BrokenPairs == 0 {
					t.Fatalf("%s: the fault-oblivious dmodk-naive lost no pair; the shape does not test the repair", what)
				}
				t.Logf("%s: dmodk-naive loses %d pairs", what, tb.BrokenPairs)
			}
		}
	}
}

// multiUplink are the hand-picked fabrics whose hosts have several
// uplinks, so every host keeps a row of choices.
var multiUplink = []topo.PGFT{
	topo.MustPGFT(2, []int{4, 3}, []int{2, 2}, []int{1, 1}), // w1 > 1: two leaves per host
	topo.MustPGFT(2, []int{3, 3}, []int{1, 2}, []int{2, 1}), // p1 > 1: two cables to one leaf
}

// TestRepairMatchesRebuild is "incremental repair == full rebuild": over
// seeded random fabrics and the multi-uplink shapes, 1..6 dead links (host
// uplinks included), then a fail -> revive -> fail sequence on the same
// FaultSet, Repair of the whole cluster's D-Mod-K and of a partial job's
// ranked tables serves exactly the reference — fabric.Reroute over every
// column of fresh tables under the same rank, then route.CompileLenient —
// entry for entry and pair for pair, and the three broken-pair counts
// (Repair, Reroute, arena minus the pairs touching unroutable hosts)
// agree. The label is the healthy one plus "-reroute[N faults]":
// RouteAround's for D-Mod-K.
func TestRepairMatchesRebuild(t *testing.T) {
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
		active, err := route.DModKActive(tp, half)
		if err != nil {
			t.Fatal(err)
		}
		configs := []struct {
			name    string
			healthy *fabric.Tables
			rank    []int
		}{
			{"whole cluster", healthy(t, route.DModK(tp)), nil},
			{"every second host", healthy(t, active), activeRank},
		}
		all := make([]int, n)
		for j := range all {
			all[j] = j
		}
		check := func(what string, fs *fabric.FaultSet) {
			t.Helper()
			for _, cf := range configs {
				what := what + " " + cf.name
				tb, err := fs.Repair(cf.healthy, cf.rank)
				if err != nil {
					t.Fatal(err)
				}
				ref := route.NewLFT(tp, "reference")
				rr := fs.Reroute(ref, cf.rank, all)
				refC, err := route.CompileLenient(ref)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("%s-reroute[%d faults]", cf.healthy.LFT.Name, fs.Failed()); fs.Failed() > 0 && tb.LFT.Name != want {
					t.Fatalf("%s: label %q, want %q", what, tb.LFT.Name, want)
				}
				u := len(rr.UnroutableHosts)
				if touching := 2*u*(n-1) - u*(u-1); tb.BrokenPairs != rr.BrokenPairs || tb.BrokenPairs != refC.NumBroken()-touching {
					t.Fatalf("%s: broken pairs: repair %d, reroute %d, arena %d - %d touching %d unroutable hosts",
						what, tb.BrokenPairs, rr.BrokenPairs, refC.NumBroken(), touching, u)
				}
				sameEntries(t, what, ref, tb.LFT)
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

// sameEntries fails unless a and b agree entry for entry, read the way
// every walker reads them.
func sameEntries(t *testing.T, what string, a, b *route.LFT) {
	t.Helper()
	for id := range a.T.Nodes {
		for j := 0; j < a.T.NumHosts(); j++ {
			if p, q := a.OutPort(topo.NodeID(id), j), b.OutPort(topo.NodeID(id), j); p != q {
				t.Fatalf("%s: node %d dst %d: %s has port %d, %s has %d", what, id, j, a.Name, p, b.Name, q)
			}
		}
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
