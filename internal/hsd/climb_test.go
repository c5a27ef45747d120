package hsd_test

import (
	"testing"

	"fattree/internal/cps"
	"fattree/internal/engine"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// TestClimbPath pins which arenas stageRanks counts by their climbs, so
// the differential wall cannot pass without running the climbing replay:
// healthy D-Mod-K on the paper's clusters and on seeded RLFTs takes it,
// and its summaries equal the full count's; a repaired arena, the
// table sets with no closed form, and two table sets whose closed form
// descends a switch link towards two destinations do not.
func TestClimbPath(t *testing.T) {
	compile := func(g topo.PGFT, eng string) *route.Compiled {
		t.Helper()
		e, err := engine.Build(eng, topo.MustBuild(g), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := e.Tables(nil)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Compiled
	}
	take := map[string]*route.Compiled{
		"dmodk Cluster324":  compile(topo.Cluster324, "dmodk"),
		"dmodk Cluster1944": compile(topo.Cluster1944, "dmodk"),
	}
	for seed := int64(1); seed <= 8; seed++ {
		g := invariant.RandRLFT(seed)
		take["dmodk "+g.String()] = compile(g, "dmodk")
	}
	for name, c := range take {
		a, full := hsd.NewAnalyzer(c), hsd.NewAnalyzer(c)
		if hsd.ClimbWidth(a) == 0 {
			t.Fatalf("%s: no climbing replay, want one", name)
		}
		n := c.Topology().NumHosts()
		o := order.Random(n, nil, 7)
		seq := cps.Shift(n)
		for _, s := range []int{1, n / 2, n - 1} {
			got, ok := hsd.Climbs(a, seq.Stage(s), o)
			if !ok {
				t.Fatalf("%s stage %d: the climbing replay gave up on a permutation", name, s)
			}
			var pairs [][2]int
			for _, p := range seq.Stage(s) {
				pairs = append(pairs, [2]int{o.HostOf[p.Src], o.HostOf[p.Dst]})
			}
			want, err := full.Stage(pairs)
			if err != nil || got != want {
				t.Fatalf("%s stage %d: climbs %+v, full count %+v (%v)", name, s, got, want, err)
			}
		}
	}

	healthy := compile(topo.Cluster324, "dmodk")
	repaired, err := healthy.Repatch(healthy.Inner(), []int{5})
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]*route.Compiled{
		"dmodk Cluster324 repatched":      repaired,
		"smodk Cluster324":                compile(topo.Cluster324, "smodk"),
		"minhop-random Cluster324":        compile(topo.Cluster324, "minhop-random"),
		"dmodk-naive Cluster1944":         compile(topo.Cluster1944, "dmodk-naive"),
		"dmodk PGFT(3;4,4,3;2,2,2;1,2,1)": compile(topo.MustPGFT(3, []int{4, 4, 3}, []int{2, 2, 2}, []int{1, 2, 1}), "dmodk"),
	}
	for name, c := range skip {
		if w := hsd.ClimbWidth(hsd.NewAnalyzer(c)); w != 0 {
			t.Errorf("%s: climbing replay of width %d, want the full count", name, w)
		}
	}
}
