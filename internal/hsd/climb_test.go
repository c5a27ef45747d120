package hsd_test

import (
	"fmt"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/engine"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/mpi"
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

// planted is a test-local sequence of once-shaped stages laid out on
// rlft2:4,8 under the topology order, where rank r is end-port r, leaf
// r/4, and D-Mod-K climbs towards dst over its leaf's up port dst%4. In
// stage 0 a turned flow (2->1) meets its leaf's up port 1 holding one
// flow, and the last pair makes the stage's only hot link. In stage 1 a
// turned flow meets that port holding two flows, and a third flow climbs
// over it after.
type planted struct{}

func (planted) Name() string        { return "planted" }
func (planted) Size() int           { return 32 }
func (planted) NumStages() int      { return 2 }
func (planted) Bidirectional() bool { return false }

func (planted) Stage(s int) cps.Stage {
	return [][]cps.Pair{
		{{Src: 0, Dst: 5}, {Src: 2, Dst: 1}, {Src: 4, Dst: 10}, {Src: 6, Dst: 7}, {Src: 5, Dst: 14}},
		{{Src: 0, Dst: 5}, {Src: 1, Dst: 9}, {Src: 2, Dst: 1}, {Src: 3, Dst: 13}},
	}[s]
}

// TestClimbsPlanted holds the climbing replay's inline summary to the full
// count on stages planted where it can go wrong: a turned flow adds 0 at a
// real counter that already holds one flow or two, a link reaches three,
// and the maximum is made by the very last increment. The stages' layout
// is checked first, from the arena's own climb keys, so the test cannot
// pass on stages that miss what they plant. Rotations, which the replay
// reads as two runs of the keys, are planted too (checkRotationsPlanted).
func TestClimbsPlanted(t *testing.T) {
	g, err := topo.ParseSpec("rlft2:4,8")
	if err != nil {
		t.Fatal(err)
	}
	c := compileEngine(t, g, "dmodk")
	n, w := c.Topology().NumHosts(), c.ClimbWidth()
	if w == 0 {
		t.Fatalf("%v: no climbing replay, want one", g)
	}
	o, seq := order.Topology(n, nil), planted{}
	src, dst := make([]uint64, w*n), make([]uint64, w*n)
	c.ClimbKeys(src, dst, o.HostOf)

	// The layout: the loads turned flows meet, the loads climbs reach, and
	// how many links were hot before each stage's last pair.
	turnedOnto, reached := map[int32]bool{}, map[int32]bool{}
	for s := 0; s < seq.NumStages(); s++ {
		st, load, hot := seq.Stage(s), map[uint32]int32{}, 0
		for i := 0; i < w; i++ {
			for j, p := range st {
				cell, climbing := route.ClimbHop(src[i*n+int(p.Src)], dst[i*n+int(p.Dst)])
				if climbing == 0 {
					turnedOnto[load[cell]] = true
					continue
				}
				if load[cell]++; load[cell] == 2 {
					if s == 0 && (hot > 0 || i < w-1 || j < len(st)-1) {
						t.Fatalf("stage 0: a link turns hot before the stage's last increment")
					}
					hot++
				}
				reached[load[cell]] = true
			}
		}
		if s == 0 && hot != 1 {
			t.Fatalf("stage 0: %d hot links, want the one its last increment makes", hot)
		}
	}
	if !turnedOnto[1] || !turnedOnto[2] || !reached[3] {
		t.Fatalf("the planted stages miss a case: turned flows meet loads %v, climbs reach %v", turnedOnto, reached)
	}

	rep, err := hsd.Analyze(c, o, seq)
	if err != nil {
		t.Fatal(err)
	}
	a, full := hsd.NewAnalyzer(c), hsd.NewAnalyzer(c)
	for s := 0; s < seq.NumStages(); s++ {
		st := seq.Stage(s)
		want := hsd.Replay(full, st, o)
		if got, ok := hsd.Climbs(a, st, o); !ok || got != want {
			t.Fatalf("stage %d: climbs %+v (taken %v), full count %+v", s, got, ok, want)
		}
		if rep.Stages[s] != want {
			t.Fatalf("stage %d: Analyze %+v, full count %+v", s, rep.Stages[s], want)
		}
	}
	checkRotationsPlanted(t, c)
}

// checkRotationsPlanted plants rotations on rlft2:4,8, whose one climb
// level is its leaves' up ports, where the two runs of the keys can go
// wrong: a wrap-around stage whose only hot link is made by the second
// run's last increment (ranks 0 and 5 swapped, rotation by 2: ranks 30
// and 31 on leaf 7 send to end-ports 5 and 1 over one up port); the
// displacements 1 and N-1, whose second and first runs hold one flow; and
// jobs of two ranks, on two leaves and on one. Each is counted over the
// runs, over its pair list and in full, and by Analyze through a sampled
// Shift that declares it.
func checkRotationsPlanted(t *testing.T, c *route.Compiled) {
	n, w := c.Topology().NumHosts(), c.ClimbWidth()
	hostOf := make([]int, n)
	for h := range hostOf {
		hostOf[h] = h
	}
	hostOf[0], hostOf[5] = 5, 0
	mustOrder := func(label string, hostOf []int) *order.Ordering {
		o, err := order.New(label, n, hostOf)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	random := order.Random(n, nil, 9)
	cases := []struct {
		name string
		o    *order.Ordering
		d    int
		hot  bool // whether the stage must have a hot link
	}{
		{"wrap-around", mustOrder("0<->5", hostOf), 2, true},
		{"d=1", random, 1, true},
		{"d=N-1", random, n - 1, true},
		{"N=2 over two leaves", mustOrder("two leaves", []int{1, 6}), 1, false},
		{"N=2 on one leaf", mustOrder("one leaf", []int{6, 5}), 1, false},
	}
	for _, tc := range cases {
		size := tc.o.Size()
		src, dst := make([]uint64, w*size), make([]uint64, w*size)
		c.ClimbKeys(src, dst, tc.o.HostOf)
		// The layout: how many links turn hot, and whether the last one to
		// is made by the stage's last increment.
		load, hot, last := map[uint32]int32{}, 0, false
		for i := 0; i < w; i++ {
			for r := 0; r < size; r++ {
				cell, climbing := route.ClimbHop(src[i*size+r], dst[i*size+(r+tc.d)%size])
				if load[cell] += climbing; climbing == 1 && load[cell] == 2 {
					hot++
					last = i == w-1 && r == size-1
				}
			}
		}
		if tc.hot != (hot > 0) || tc.name == "wrap-around" && (hot != 1 || !last) {
			t.Fatalf("%s: %d hot links, the last made by the stage's last increment %v", tc.name, hot, last)
		}

		shift, err := mpi.SampleStages(cps.Shift(size), []int{tc.d - 1})
		if err != nil {
			t.Fatal(err)
		}
		st := shift.Stage(0)
		a, list, full := hsd.NewAnalyzer(c), hsd.NewAnalyzer(c), hsd.NewAnalyzer(c)
		want := hsd.Replay(full, st, tc.o)
		listed, ok := hsd.Climbs(list, st, tc.o)
		if got := hsd.Rotation(a, tc.d, tc.o); !ok || got != want || listed != want {
			t.Fatalf("%s: runs %+v, pair-list climbs %+v (taken %v), full count %+v", tc.name, got, listed, ok, want)
		}
		if want.HotLinks != hot {
			t.Fatalf("%s: full count reads %d hot links, the layout %d", tc.name, want.HotLinks, hot)
		}
		rep, err := hsd.Analyze(c, tc.o, shift)
		if err != nil || rep.Climbed != 1 || rep.Stages[0] != want {
			t.Fatalf("%s: Analyze %+v (climbed %d), full count %+v (%v)", tc.name, rep.Stages, rep.Climbed, want, err)
		}
	}
}
