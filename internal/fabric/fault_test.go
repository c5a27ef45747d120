package fabric

import (
	"testing"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

func TestRouteAroundNoFaultsEqualsDModK(t *testing.T) {
	for _, g := range []topo.PGFT{
		topo.Cluster128,
		topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2}),
	} {
		tp := topo.MustBuild(g)
		fs := NewFaultSet(tp)
		got, res, err := fs.RouteAround()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.UnroutableHosts) != 0 || res.BrokenPairs != 0 {
			t.Fatalf("%v: damage %+v with no faults", g, res)
		}
		sameTables(t, got, route.DModK(tp))
	}
}

func TestRouteAroundSurvivesFabricFaults(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	k := topo.Cluster128.M[0] // hosts per leaf: the adversarial-order HSD
	for _, kill := range []int{1, 2, 4, 8, 12, 16} {
		for seed := int64(0); seed < 3; seed++ {
			fs := NewFaultSet(tp)
			if err := fs.FailRandomFabricLinks(kill, seed); err != nil {
				t.Fatal(err)
			}
			lft, res, err := fs.RouteAround()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.UnroutableHosts) != 0 {
				t.Fatalf("kill=%d seed=%d: hosts unroutable %v", kill, seed, res.UnroutableHosts)
			}
			if res.BrokenPairs != 0 {
				t.Fatalf("kill=%d seed=%d: %d broken pairs at moderate fault level", kill, seed, res.BrokenPairs)
			}
			// Degradation stays below the adversarial-order collapse:
			// flows fold onto neighbouring up-links, no cliff.
			rep, err := hsd.Analyze(lft, order.Topology(tp.NumHosts(), nil), cps.Shift(tp.NumHosts()))
			if err != nil {
				t.Fatal(err)
			}
			if rep.MaxHSD() >= k {
				t.Errorf("kill=%d seed=%d: Shift max HSD %d, want < K = %d", kill, seed, rep.MaxHSD(), k)
			}
			// Every pair still delivered over a path avoiding dead
			// links.
			n := tp.NumHosts()
			for src := 0; src < n; src += 7 {
				for dst := 0; dst < n; dst += 11 {
					if src == dst {
						continue
					}
					hops, err := lft.Trace(src, dst)
					if err != nil {
						t.Fatalf("kill=%d seed=%d: %v", kill, seed, err)
					}
					for _, h := range hops {
						if !fs.Alive(h.Link) {
							t.Fatalf("kill=%d seed=%d: %d->%d crosses dead link %d",
								kill, seed, src, dst, h.Link)
						}
					}
				}
			}
		}
	}
}

func TestRouteAroundHostUplinkFault(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	fs := NewFaultSet(tp)
	// Kill host 5's only uplink.
	h := tp.Host(5)
	fs.Fail(tp.Ports[h.Up[0]].Link)
	lft, res, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnroutableHosts) != 1 || res.UnroutableHosts[0] != 5 {
		t.Fatalf("unroutable = %v, want [5]", res.UnroutableHosts)
	}
	// Other pairs unaffected.
	if _, err := lft.Trace(0, 127); err != nil {
		t.Errorf("unrelated pair broken: %v", err)
	}
}

// TestRouteAroundBrokenPairsExcludeUnroutable: BrokenPairs counts unserved
// pairs between routable hosts only, whatever the unroutable host's index
// (the count used to charge it one pair per lower-numbered destination).
func TestRouteAroundBrokenPairsExcludeUnroutable(t *testing.T) {
	g, err := topo.RLFT2(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.MustBuild(g)
	fs := NewFaultSet(tp)
	fs.Fail(tp.Ports[tp.Host(20).Up[0]].Link)
	lft, res, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnroutableHosts) != 1 || res.UnroutableHosts[0] != 20 {
		t.Fatalf("unroutable = %v, want [20]", res.UnroutableHosts)
	}
	if res.BrokenPairs != 0 {
		t.Errorf("BrokenPairs = %d, want 0: every unserved pair touches host 20", res.BrokenPairs)
	}
	c, err := route.CompileLenient(lft)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (tp.NumHosts() - 1); c.NumBroken() != want {
		t.Errorf("arena has %d broken pairs, want the %d touching host 20", c.NumBroken(), want)
	}
}

func TestRouteAroundGracefulDegradation(t *testing.T) {
	// A single fabric fault should cause at most mild contention under
	// the Shift: flows that used the dead link fold onto a neighbour.
	tp := topo.MustBuild(topo.Cluster324)
	fs := NewFaultSet(tp)
	if err := fs.FailRandomFabricLinks(1, 7); err != nil {
		t.Fatal(err)
	}
	lft, res, err := fs.RouteAround()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnroutableHosts) != 0 || res.BrokenPairs != 0 {
		t.Fatalf("unexpected damage %+v", res)
	}
	rep, err := hsd.Analyze(lft, order.Topology(tp.NumHosts(), nil), cps.Shift(tp.NumHosts()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxHSD() > 3 {
		t.Errorf("single fault drove max HSD to %d; expected graceful (<= 3)", rep.MaxHSD())
	}
	if rep.AvgMaxHSD() > 2.0 {
		t.Errorf("single fault avg max HSD = %.2f; expected < 2", rep.AvgMaxHSD())
	}
}

func TestRouteAroundExtremeFaultsReportBrokenPairs(t *testing.T) {
	// At ~30% dead fabric links, minimal up*/down* routing cannot save
	// every pair; the reroute must report it rather than loop or panic.
	tp := topo.MustBuild(topo.Cluster128)
	broken := 0
	for seed := int64(0); seed < 5; seed++ {
		fs := NewFaultSet(tp)
		if err := fs.FailRandomFabricLinks(40, seed); err != nil {
			t.Fatal(err)
		}
		_, res, err := fs.RouteAround()
		if err != nil {
			t.Fatal(err)
		}
		broken += res.BrokenPairs
	}
	if broken == 0 {
		t.Log("no broken pairs even at 30% faults (lucky seeds) — acceptable")
	}
}

func TestFaultSetBookkeeping(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	fs := NewFaultSet(tp)
	if fs.Failed() != 0 {
		t.Fatalf("fresh set has %d failures", fs.Failed())
	}
	fs.Fail(3)
	fs.Fail(3)
	fs.Fail(5)
	if fs.Failed() != 2 {
		t.Errorf("Failed = %d, want 2", fs.Failed())
	}
	if fs.Alive(3) || !fs.Alive(4) {
		t.Error("alive flags wrong")
	}
	fs.Revive(3)
	if fs.Failed() != 1 || !fs.Alive(3) {
		t.Error("revive failed")
	}
	if err := fs.FailRandomFabricLinks(1<<20, 1); err == nil {
		t.Error("impossible fault count accepted")
	}
}

// sameTables fails unless a and b agree entry for entry, read the way
// every walker reads them.
func sameTables(t *testing.T, a, b *route.LFT) {
	t.Helper()
	for id := range a.T.Nodes {
		for j := 0; j < a.T.NumHosts(); j++ {
			if p, q := a.OutPort(topo.NodeID(id), j), b.OutPort(topo.NodeID(id), j); p != q {
				t.Fatalf("%v: %v dst %d: %s has port %d, %s has %d", a.T.Spec, a.T.Node(topo.NodeID(id)), j, a.Name, p, b.Name, q)
			}
		}
	}
}
