package invariant

import (
	"strings"
	"testing"

	"fattree/internal/fabric"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// dmodkInstance builds the standard system under check for a spec:
// topology, compiled D-Mod-K, topology ordering.
func dmodkInstance(g topo.PGFT) (*Instance, error) {
	t, err := topo.Build(g)
	if err != nil {
		return nil, err
	}
	c, err := route.Compile(route.DModK(t))
	if err != nil {
		return nil, err
	}
	return NewInstance(t, c, nil), nil
}

func mustInstance(t *testing.T, g topo.PGFT) *Instance {
	t.Helper()
	in, err := dmodkInstance(g)
	if err != nil {
		t.Fatalf("build instance for %v: %v", g, err)
	}
	return in
}

func statusOf(rep *Report, name string) Status {
	for _, c := range rep.Checks {
		if c.Name == name {
			return c.Status
		}
	}
	return ""
}

func findResult(rep *Report, name string) Result {
	for _, c := range rep.Checks {
		if c.Name == name {
			return c
		}
	}
	return Result{}
}

// TestCatalogPassesOnKnownTopologies runs the full catalog under
// compiled D-Mod-K on the acceptance family: the paper's 324-host RLFT,
// a k-ary-n-tree, an XGFT, and a non-CBB PGFT (where the theorem checks
// must skip, not fail).
func TestCatalogPassesOnKnownTopologies(t *testing.T) {
	cases := []struct {
		name     string
		spec     topo.PGFT
		thm2     Status // expected route.thm2-down-unique status
		hsdCheck Status // expected hsd.contention-free status
	}{
		{"rlft-324", topo.Cluster324, Pass, Pass},
		{"kary-4-3", must(topo.KAryNTree(4, 3)), Pass, Pass},
		{"xgft", topo.MustPGFT(3, []int{2, 2, 2}, []int{1, 2, 2}, []int{1, 1, 1}), Pass, Pass},
		{"non-cbb-pgft", topo.MustPGFT(2, []int{4, 6}, []int{1, 2}, []int{1, 1}), Skip, Skip},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Run(mustInstance(t, tc.spec), nil)
			if !rep.Pass {
				t.Fatalf("catalog failed on %v: %v", tc.spec, rep.FailedNames())
			}
			if got := statusOf(rep, "route.thm2-down-unique"); got != tc.thm2 {
				t.Errorf("route.thm2-down-unique = %s, want %s", got, tc.thm2)
			}
			if got := statusOf(rep, "hsd.contention-free"); got != tc.hsdCheck {
				t.Errorf("hsd.contention-free = %s, want %s", got, tc.hsdCheck)
			}
			if rep.Schema != schema.Check {
				t.Errorf("report schema %q, want %q", rep.Schema, schema.Check)
			}
		})
	}
}

// TestSkipNamesBrokenRestrictions: on a PGFT outside the RLFT class,
// the three checks that skip there name exactly the restrictions the tree
// breaks, never one it meets. CBB is m_1*p_1 == w_2*p_2 here; the last
// tree's leaves have 4*2 host cables below and 2*2 above, so its double
// host cables break both restrictions.
func TestSkipNamesBrokenRestrictions(t *testing.T) {
	for _, tc := range []struct {
		spec   string
		broken string
	}{
		{"PGFT(2;4,6;1,2;1,1)", "breaks the constant CBB restriction"},
		{"PGFT(2;2,4;1,2;2,2)", "breaks the single host uplink restriction"},
		{"PGFT(2;4,3;1,2;2,2)", "breaks the constant CBB and single host uplink restrictions"},
	} {
		g, err := topo.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		in := mustInstance(t, g)
		for name, check := range map[string]func(*Instance) Result{
			"route.thm2-down-unique": checkThm2DownUnique,
			"hsd.contention-free":    checkContentionFree,
			"sim.zero-stalls":        checkSimZeroStalls,
		} {
			if res := check(in); res.Status != Skip || !strings.HasSuffix(res.SkipReason, tc.broken) {
				t.Errorf("%s on %s: %s %q, want a skip that %s", name, tc.spec, res.Status, res.SkipReason, tc.broken)
			}
		}
	}
}

func must(g topo.PGFT, err error) topo.PGFT {
	if err != nil {
		panic(err)
	}
	return g
}

// TestRandomUpPortRoutingFails pins the first deliberately-broken input:
// the minhop-random baseline violates Theorem 2 and contention freedom
// on an RLFT, and the counterexamples carry concrete evidence.
func TestRandomUpPortRoutingFails(t *testing.T) {
	g := must(topo.RLFT2(4, 8))
	tp := topo.MustBuild(g)
	c, err := route.Compile(route.MinHopRandom(tp, 7))
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(NewInstance(tp, c, nil), nil)
	if rep.Pass {
		t.Fatalf("catalog passed for minhop-random on %v", g)
	}
	thm2 := findResult(rep, "route.thm2-down-unique")
	if thm2.Status != Fail {
		t.Fatalf("route.thm2-down-unique = %s, want fail", thm2.Status)
	}
	if thm2.Counterexample == nil || len(thm2.Counterexample.Pair) != 2 || thm2.Counterexample.Link == nil {
		t.Errorf("thm2 counterexample lacks pair/link evidence: %+v", thm2.Counterexample)
	}
	hsdRes := findResult(rep, "hsd.contention-free")
	if hsdRes.Status != Fail {
		t.Fatalf("hsd.contention-free = %s, want fail", hsdRes.Status)
	}
	cx := hsdRes.Counterexample
	if cx == nil || cx.Link == nil || cx.Stage == nil || cx.Load < 2 || len(cx.Flows) != cx.Load && len(cx.Flows) != maxBlameFlows {
		t.Errorf("hsd counterexample lacks blame evidence: %+v", cx)
	}
}

// TestShuffledOrderingFails pins the second broken input: a random
// ordering under correct D-Mod-K breaks contention freedom, while every
// structural routing check still passes.
func TestShuffledOrderingFails(t *testing.T) {
	g := must(topo.RLFT2(4, 8))
	tp := topo.MustBuild(g)
	c, err := route.Compile(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(NewInstance(tp, c, order.Random(tp.NumHosts(), nil, 3)), nil)
	if rep.Pass {
		t.Fatalf("catalog passed for a shuffled ordering on %v", g)
	}
	failed := rep.FailedNames()
	if len(failed) != 1 || failed[0] != "hsd.contention-free" {
		t.Fatalf("want only hsd.contention-free to fail, got %v", failed)
	}
	cx := findResult(rep, "hsd.contention-free").Counterexample
	if cx == nil || cx.Link == nil || len(cx.Flows) < 2 {
		t.Errorf("contention counterexample lacks flows: %+v", cx)
	}
}

// detourRouter replaces one same-leaf pair's path with a delivered,
// up*/down*-shaped but non-minimal detour over the leaf's first spine —
// the signature of a buggy reroute that forgot the minimality rule.
type detourRouter struct {
	route.Router
	src, dst int
}

func (d *detourRouter) Walk(src, dst int, visit func(topo.LinkID, bool)) error {
	if src != d.src || dst != d.dst {
		return d.Router.Walk(src, dst, visit)
	}
	t := d.Topology()
	leaf := t.LeafOf(src)
	srcUp := t.Ports[t.Host(src).Up[0]].Link
	leafUp := t.Ports[leaf.Up[0]].Link
	dstUp := t.Ports[t.Host(dst).Up[0]].Link
	visit(srcUp, true)
	visit(leafUp, true)
	visit(leafUp, false)
	visit(dstUp, false)
	return nil
}

// TestNonMinimalPathFails pins a delivered-but-non-minimal path: only
// route.minimal fails, naming the lexicographically first damaged pair.
func TestNonMinimalPathFails(t *testing.T) {
	g := must(topo.RLFT2(4, 8))
	tp := topo.MustBuild(g)
	rep := Run(NewInstance(tp, &detourRouter{Router: route.DModK(tp), src: 0, dst: 1}, nil), nil)
	if rep.Pass {
		t.Fatal("catalog passed for a router with a non-minimal path")
	}
	res := findResult(rep, "route.minimal")
	if res.Status != Fail {
		t.Fatalf("route.minimal = %s, want fail", res.Status)
	}
	if res.Counterexample == nil || len(res.Counterexample.Pair) != 2 ||
		res.Counterexample.Pair[0] != 0 || res.Counterexample.Pair[1] != 1 {
		t.Errorf("want minimal counterexample pair [0 1], got %+v", res.Counterexample)
	}
	if got := statusOf(rep, "route.total"); got != Pass {
		t.Errorf("route.total = %s, want pass (the detour still delivers)", got)
	}
}

// TestFaultedLinkStaleTablesFail pins the third broken input: tables
// computed before a fault keep crossing the dead link, and route.alive
// names the first pair doing so.
func TestFaultedLinkStaleTablesFail(t *testing.T) {
	g := must(topo.RLFT2(4, 8))
	tp := topo.MustBuild(g)
	c, err := route.Compile(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	fs := fabric.NewFaultSet(tp)
	// Fail one mid-tier (leaf->spine) link; stale D-Mod-K still uses it.
	var fault topo.LinkID = -1
	for i := range tp.Links {
		if tp.Node(tp.Ports[tp.Links[i].Lower].Node).Kind == topo.Switch {
			fault = topo.LinkID(i)
			break
		}
	}
	fs.Fail(fault)
	in := NewInstance(tp, c, nil)
	in.Alive = fs.Alive
	rep := Run(in, nil)
	if rep.Pass {
		t.Fatal("catalog passed for stale tables over a faulted link")
	}
	res := findResult(rep, "route.alive")
	if res.Status != Fail {
		t.Fatalf("route.alive = %s, want fail", res.Status)
	}
	if res.Counterexample == nil || res.Counterexample.Link == nil || topo.LinkID(*res.Counterexample.Link) != fault {
		t.Errorf("want dead link %d blamed, got %+v", fault, res.Counterexample)
	}
	// Theorem checks must skip (not fail) on the degraded instance.
	if got := statusOf(rep, "route.thm2-down-unique"); got != Skip {
		t.Errorf("route.thm2-down-unique = %s, want skip on faulted fabric", got)
	}
	if got := statusOf(rep, "hsd.contention-free"); got != Skip {
		t.Errorf("hsd.contention-free = %s, want skip on faulted fabric", got)
	}
}

// TestReroutedFaultPasses is the flip side: after RouteAround plus a
// lenient compile the catalog passes again (theorem checks skip), so the
// harness distinguishes stale tables from a correct repair.
func TestReroutedFaultPasses(t *testing.T) {
	g := must(topo.RLFT2(4, 8))
	tp := topo.MustBuild(g)
	fs := fabric.NewFaultSet(tp)
	if err := fs.FailRandomFabricLinks(2, 11); err != nil {
		t.Fatal(err)
	}
	lft, res, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	c, err := route.CompileLenient(lft)
	if err != nil {
		t.Fatal(err)
	}
	unroutable := make(map[int]bool)
	for _, j := range res.UnroutableHosts {
		unroutable[j] = true
	}
	in := NewInstance(tp, c, nil)
	in.Alive = fs.Alive
	in.Unroutable = func(j int) bool { return unroutable[j] }
	rep := Run(in, nil)
	if !rep.Pass {
		t.Fatalf("catalog failed on a correctly rerouted fabric: %v", rep.FailedNames())
	}
}

// TestLenientArena covers the shared fmgr validation helper on both a
// clean arena and one with real broken pairs from a host-uplink cut.
func TestLenientArena(t *testing.T) {
	g := must(topo.RLFT2(4, 8))
	tp := topo.MustBuild(g)
	c, err := route.CompileLenient(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	if err := LenientArena(tp, c, nil); err != nil {
		t.Fatalf("clean arena rejected: %v", err)
	}
	// An unroutable host whose pairs are NOT marked broken must be
	// rejected.
	if err := LenientArena(tp, c, func(j int) bool { return j == 3 }); err == nil {
		t.Fatal("arena accepted served pairs touching an unroutable host")
	}

	fs := fabric.NewFaultSet(tp)
	fs.Fail(tp.Links[tp.Ports[tp.Host(0).Up[0]].Link].ID)
	lft, res, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := route.CompileLenient(lft)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnroutableHosts) != 1 || res.UnroutableHosts[0] != 0 {
		t.Fatalf("want host 0 unroutable, got %v", res.UnroutableHosts)
	}
	if err := LenientArena(tp, cl, func(j int) bool { return j == 0 }); err != nil {
		t.Fatalf("faulted arena rejected: %v", err)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Catalog()) {
		t.Fatalf("Select(all) = %d checks, err %v", len(all), err)
	}
	topoOnly, err := Select("topo")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range topoOnly {
		if !strings.HasPrefix(c.Name, "topo.") {
			t.Errorf("Select(topo) returned %s", c.Name)
		}
	}
	if len(topoOnly) != 5 {
		t.Errorf("Select(topo) = %d checks, want 5", len(topoOnly))
	}
	mixed, err := Select("route.total, cps")
	if err != nil || len(mixed) != 2 {
		t.Fatalf("Select(route.total, cps) = %v checks, err %v", len(mixed), err)
	}
	if _, err := Select("no.such-check"); err == nil {
		t.Fatal("Select accepted an unknown check name")
	}
}

func TestOrderingBijectionHelper(t *testing.T) {
	if err := OrderingBijection(order.Topology(8, nil)); err != nil {
		t.Fatalf("topology order rejected: %v", err)
	}
	if err := OrderingBijection(order.Random(8, []int{1, 3, 5}, 2)); err != nil {
		t.Fatalf("partial random order rejected: %v", err)
	}
	bad := order.Topology(8, nil)
	bad.HostOf[2] = bad.HostOf[3] // duplicate host behind the back
	if err := OrderingBijection(bad); err == nil {
		t.Fatal("duplicate-host ordering accepted")
	}
}

// BenchmarkInvariantSuite324 runs the full invariant catalog — all 15
// executable theorem and representation checks — against the paper's
// 324-node cluster under compiled D-Mod-K, the exact workload of `make
// check` and the CI theorem-verification job.
func BenchmarkInvariantSuite324(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	c, err := route.Compile(route.DModK(t))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Run(NewInstance(t, c, nil), nil)
		if !rep.Pass {
			b.Fatalf("catalog failed: %v", rep.FailedNames())
		}
	}
}
