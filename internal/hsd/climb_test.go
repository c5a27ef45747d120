package hsd_test

import (
	"fmt"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/engine"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// compileEngine builds eng's healthy tables on g and returns their arena.
func compileEngine(t *testing.T, g topo.PGFT, eng string) *route.Compiled {
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

// certified returns the arenas whose stages stageRanks may count by their
// climbs: healthy D-Mod-K on the paper's clusters and on seeded RLFTs.
func certified(t *testing.T) map[string]*route.Compiled {
	t.Helper()
	take := map[string]*route.Compiled{
		"dmodk Cluster324":  compileEngine(t, topo.Cluster324, "dmodk"),
		"dmodk Cluster1944": compileEngine(t, topo.Cluster1944, "dmodk"),
	}
	for seed := int64(1); seed <= 8; seed++ {
		g := invariant.RandRLFT(seed)
		take["dmodk "+g.String()] = compileEngine(t, g, "dmodk")
	}
	return take
}

// TestClimbPath pins which arenas stageRanks counts by their climbs, so
// the differential wall cannot pass without running the climbing replay:
// healthy D-Mod-K on the paper's clusters and on seeded RLFTs takes it,
// and its summaries equal the full count's; a repaired arena, the
// table sets with no closed form, and two table sets whose closed form
// descends a switch link towards two destinations do not.
func TestClimbPath(t *testing.T) {
	for name, c := range certified(t) {
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

	healthy := compileEngine(t, topo.Cluster324, "dmodk")
	repaired, err := healthy.Repatch(healthy.Inner(), []int{5})
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]*route.Compiled{
		"dmodk Cluster324 repatched":      repaired,
		"smodk Cluster324":                compileEngine(t, topo.Cluster324, "smodk"),
		"minhop-random Cluster324":        compileEngine(t, topo.Cluster324, "minhop-random"),
		"dmodk-naive Cluster1944":         compileEngine(t, topo.Cluster1944, "dmodk-naive"),
		"dmodk PGFT(3;4,4,3;2,2,2;1,2,1)": compileEngine(t, topo.MustPGFT(3, []int{4, 4, 3}, []int{2, 2, 2}, []int{1, 2, 1}), "dmodk"),
	}
	for name, c := range skip {
		if w := hsd.ClimbWidth(hsd.NewAnalyzer(c)); w != 0 {
			t.Errorf("%s: climbing replay of width %d, want the full count", name, w)
		}
	}
}

// TestClimbKeysDifferential is the wall around the keyed climb: on every
// arena TestClimbPath certifies, stage by stage, the climbing replay must
// equal stageRanks' full count whenever a stage's rank shape lets it run.
// The orderings include rank-compacted partial jobs, where keys are laid
// out by rank and not by end-port, and one analyzer serves every ordering
// in turn, so its keys are laid out again each time. Of the recounts
// stages, the incast and the repeated source must fall back to the full
// count; the Shift stage with a self pair must not.
func TestClimbKeysDifferential(t *testing.T) {
	for name, c := range certified(t) {
		n := c.Topology().NumHosts()
		var active []int // every third end-port
		for h := 0; h < n; h += 3 {
			active = append(active, h)
		}
		orders := []*order.Ordering{
			order.Topology(n, nil),
			order.Random(n, nil, 11),
			order.Topology(n, active),
			order.Random(n, active[1:], 12),
		}
		a, full := hsd.NewAnalyzer(c), hsd.NewAnalyzer(c)
		climbed := 0
		for _, size := range []int{n, len(active), len(active) - 1} {
			for _, seq := range []cps.Sequence{cps.Shift(size), cps.RecursiveDoubling(size), recounts(size)} {
				for _, s := range stageSample(seq) {
					st := seq.Stage(s)
					for _, o := range orders {
						if o.Size() != size {
							continue
						}
						what := fmt.Sprintf("%s %s stage %d under %s", name, seq.Name(), s, o.Label)
						got, ok := hsd.Climbs(a, st, o)
						if _, isRecount := seq.(recounts); isRecount && ok != (s == 2) {
							t.Fatalf("%s: climbing replay taken %v, want %v", what, ok, s == 2)
						}
						if !ok {
							continue
						}
						if want := hsd.Replay(full, st, o); got != want {
							t.Fatalf("%s: keyed climbs %+v, full count %+v", what, got, want)
						}
						climbed++
					}
				}
			}
		}
		if climbed == 0 {
			t.Fatalf("%s: no stage took the climbing replay", name)
		}
	}
}

// stageSample is every stage of a sequence over up to 400 ranks and a
// spread of a larger one's, so the wall stays fast at 1944 end-ports.
func stageSample(seq cps.Sequence) []int {
	k := seq.NumStages()
	if seq.Size() <= 400 {
		s := make([]int, k)
		for i := range s {
			s[i] = i
		}
		return s
	}
	return []int{0, 1, 2, k / 3, k / 2, k - 2, k - 1}
}
