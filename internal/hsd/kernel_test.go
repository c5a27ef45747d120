package hsd_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/mpi"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// walkOnly hides a router's concrete type, so an analyzer over it takes
// the hop-by-hop Walk path even when the router is a compiled arena.
type walkOnly struct{ route.Router }

// served translates one stage's ranks to end-ports and keeps the pairs
// that carry traffic, neither self pairs nor pairs c marks broken: the
// filter of the filter-then-Stage loop every driver must equal.
func served(c *route.Compiled, o *order.Ordering, st cps.Stage) [][2]int {
	var pairs [][2]int
	for _, p := range st {
		src, dst := o.HostOf[p.Src], o.HostOf[p.Dst]
		if src != dst && !c.Broken(src, dst) {
			pairs = append(pairs, [2]int{src, dst})
		}
	}
	return pairs
}

// sweepByHand aggregates per-ordering AvgMaxHSD values the way the sweeps
// promise to, from the filter-then-Stage loop of an analyzer that walks
// c's own tables.
func sweepByHand(t *testing.T, c *route.Compiled, orders []*order.Ordering, seq cps.Sequence) hsd.Sweep {
	t.Helper()
	var sw hsd.Sweep
	walk := hsd.NewAnalyzer(walkOnly{c.Inner()})
	for i, o := range orders {
		var rep hsd.Report
		for s := 0; s < seq.NumStages(); s++ {
			sr, err := walk.Stage(served(c, o, seq.Stage(s)))
			if err != nil {
				t.Fatal(err)
			}
			rep.Stages = append(rep.Stages, sr)
		}
		v := rep.AvgMaxHSD()
		sw.Mean += v
		if i == 0 || v < sw.Min {
			sw.Min = v
		}
		if i == 0 || v > sw.Max {
			sw.Max = v
		}
	}
	sw.Mean /= float64(len(orders))
	return sw
}

// recounts is a test-local sequence of stages the climbing replay must
// hand to the full count, or must count past: an incast (every rank sends
// to rank 0), a stage in which rank 0 sends twice, and a Shift stage with
// a self pair besides.
type recounts int

func (n recounts) Name() string        { return "recounts" }
func (n recounts) Size() int           { return int(n) }
func (n recounts) NumStages() int      { return 3 }
func (n recounts) Bidirectional() bool { return false }

func (n recounts) Stage(s int) cps.Stage {
	var st cps.Stage
	for r := int32(0); r < int32(n); r++ {
		switch s {
		case 0:
			st = append(st, cps.Pair{Src: r, Dst: 0})
		case 1:
			if r < int32(n)-2 {
				st = append(st, cps.Pair{Src: r, Dst: r + 1})
			}
		default:
			st = append(st, cps.Pair{Src: r, Dst: (r + 1) % int32(n)})
		}
	}
	switch s {
	case 1:
		st = append(st, cps.Pair{Src: 0, Dst: int32(n) - 1})
	case 2:
		st = append(st, cps.Pair{Src: 2, Dst: 2})
	}
	return st
}

// TestKernelDifferential is the wall around the replay kernel: seeded
// random fabrics (plus two shapes whose hosts have several uplinks, i.e.
// private rows with no head) x {healthy, leniently compiled faulted}
// arenas x {Shift, sampled Shift, Recursive-Doubling, Ring, recounts} x
// {topology, random} orderings. On every served stage the kernel must
// agree with an analyzer that walks the same tables hop by hop — summary,
// per-link and per-level loads — and Analyze and the sweeps (which count
// a stage by its climbs where the arena allows it) with the
// filter-then-Stage loop.
func TestKernelDifferential(t *testing.T) { t.Run("32-bit cells", testKernelDifferential) }

func testKernelDifferential(t *testing.T) {
	var specs []topo.PGFT
	for seed := int64(1); seed <= 8; seed++ {
		specs = append(specs, invariant.RandRLFT(seed), invariant.RandPGFT(seed))
	}
	specs = append(specs,
		topo.MustPGFT(2, []int{4, 3}, []int{2, 2}, []int{1, 1}), // w1 > 1: two leaves per host
		topo.MustPGFT(2, []int{3, 3}, []int{1, 2}, []int{2, 1}), // p1 > 1: two cables to one leaf
	)
	sawBroken, sawPrivate, sawShared := false, false, false
	for i, g := range specs {
		if g.NumHosts() < 3 || g.NumHosts() > 200 {
			continue // every stage of Shift x engines x fault states: keep tier-1 fast
		}
		tp := topo.MustBuild(g)
		n := tp.NumHosts()
		rng := rand.New(rand.NewSource(int64(i)))
		links := fabric.NewFaultSet(tp)
		for k := 0; k < 2 && len(tp.Links) > n; k++ {
			links.Fail(topo.LinkID(n + rng.Intn(len(tp.Links)-n)))
		}
		sampled, err := mpi.SampleStages(cps.Shift(n), []int{0, n / 2, n - 2})
		if err != nil {
			t.Fatal(err)
		}
		seqs := []cps.Sequence{cps.Shift(n), sampled, cps.RecursiveDoubling(n), cps.Ring(n), recounts(n)}
		orders := []*order.Ordering{order.Topology(n, nil), order.Random(n, nil, int64(i)), order.Random(n, nil, int64(i)+100)}

		for _, engName := range []string{"dmodk", "smodk"} {
			e, err := engine.Build(engName, tp, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for fname, fs := range map[string]*fabric.FaultSet{"healthy": nil, "faulted": links} {
				tb, err := e.Tables(fs)
				if err != nil {
					t.Fatalf("%v %s %s: %v", g, engName, fname, err)
				}
				c := tb.Compiled
				sawBroken = sawBroken || c.NumBroken() > 0
				_, _, shared := c.Row(0)
				sawShared, sawPrivate = sawShared || shared, sawPrivate || !shared
				for _, seq := range seqs {
					what := fmt.Sprintf("%v %s %s %s", g, engName, fname, seq.Name())
					for _, o := range orders[:2] {
						checkStages(t, what+" "+o.Label, c, o, seq)
					}
					checkDrivers(t, what, c, orders, seq)
				}
			}
		}
	}
	if !sawBroken || !sawPrivate || !sawShared {
		t.Fatalf("the sweep missed a shape: broken pairs %v, private rows %v, shared rows %v", sawBroken, sawPrivate, sawShared)
	}
}

// checkStages compares, stage by stage over the pairs c serves, the
// kernel's Stage with a Walk of c's own tables, and Analyze with that
// filter-then-Stage loop.
func checkStages(t *testing.T, what string, c *route.Compiled, o *order.Ordering, seq cps.Sequence) {
	t.Helper()
	kernel, walk := hsd.NewAnalyzer(c), hsd.NewAnalyzer(walkOnly{c.Inner()})
	rep, err := hsd.Analyze(c, o, seq)
	if err != nil {
		t.Fatalf("%s: Analyze: %v", what, err)
	}
	if rep.Sequence != seq.Name() || rep.Ordering != o.Label || rep.Routing != c.Label() || len(rep.Stages) != seq.NumStages() {
		t.Fatalf("%s: Analyze labels %q/%q/%q over %d stages", what, rep.Sequence, rep.Ordering, rep.Routing, len(rep.Stages))
	}
	nl := len(c.Topology().Links)
	for s := 0; s < seq.NumStages(); s++ {
		pairs := served(c, o, seq.Stage(s))
		got, err := kernel.Stage(pairs)
		if err != nil {
			t.Fatalf("%s stage %d: kernel: %v", what, s, err)
		}
		want, err := walk.Stage(pairs)
		if err != nil {
			t.Fatalf("%s stage %d: walk: %v", what, s, err)
		}
		if got != want {
			t.Fatalf("%s stage %d: kernel %+v, walk %+v", what, s, got, want)
		}
		if rep.Stages[s] != want {
			t.Fatalf("%s stage %d: Analyze %+v, filter-then-Stage %+v", what, s, rep.Stages[s], want)
		}
		gu, gd := kernel.LinkLoads(nil, nil)
		wu, wd := walk.LinkLoads(nil, nil)
		if len(gu) != nl || len(gd) != nl || !reflect.DeepEqual(gu, wu) || !reflect.DeepEqual(gd, wd) {
			t.Fatalf("%s stage %d: LinkLoads differ from the walk's (the sink cell must never show)", what, s)
		}
		gu2, gd2 := kernel.LevelLoads()
		wu2, wd2 := walk.LevelLoads()
		if !reflect.DeepEqual(gu2, wu2) || !reflect.DeepEqual(gd2, wd2) {
			t.Fatalf("%s stage %d: LevelLoads %v/%v, walk %v/%v", what, s, gu2, gd2, wu2, wd2)
		}
	}
}

// checkDrivers compares the sweeps over c with the filter-then-Stage
// loop's averages, broken pairs or not.
func checkDrivers(t *testing.T, what string, c *route.Compiled, orders []*order.Ordering, seq cps.Sequence) {
	t.Helper()
	// One ordering against many workers splits its stages; three against
	// two does not; both must reproduce the per-ordering averages.
	for _, k := range []int{1, len(orders)} {
		want := sweepByHand(t, c, orders[:k], seq)
		for _, workers := range []int{1, 2, 7} {
			if got, err := hsd.SweepOrderingsParallel(c, orders[:k], seq, workers); err != nil || got != want {
				t.Fatalf("%s: SweepOrderingsParallel(%d orderings, %d workers) %+v, by hand %+v (%v)", what, k, workers, got, want, err)
			}
		}
	}
}

// oneStage is a test-local sequence of one given stage over n ranks.
type oneStage struct {
	n  int
	st cps.Stage
}

func (s oneStage) Name() string        { return "one-stage" }
func (s oneStage) Size() int           { return s.n }
func (s oneStage) NumStages() int      { return 1 }
func (s oneStage) Bidirectional() bool { return false }
func (s oneStage) Stage(int) cps.Stage { return s.st }

// TestServedPairRule pins the one rule every driver counts by: a self
// pair, or a pair the arena marks Broken, carries no traffic and is not
// a flow. A Shift stage with one rank sending to itself, and on a
// leniently compiled faulted arena one rank sending over a broken pair,
// must read the same from Stage, from a tracking analyzer, from Analyze,
// from SweepOrderingsParallel and from an analyzer that walks the arena's
// tables (given the served pairs) as from the filter-then-Stage loop.
func TestServedPairRule(t *testing.T) {
	var faulted *route.Compiled
	for seed := int64(1); seed <= 8 && faulted == nil; seed++ {
		tp := topo.MustBuild(invariant.RandRLFT(seed))
		fs := fabric.NewFaultSet(tp)
		if err := fs.FailRandomFabricLinks(2, seed); err != nil {
			t.Fatal(err)
		}
		tb, err := engine.Resolve("dmodk-naive", tp, engine.Options{}, fs)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Compiled.NumBroken() > 0 {
			faulted = tb.Compiled
		}
	}
	if faulted == nil {
		t.Fatal("no draw left a broken pair; the rule went untested")
	}
	healthy, err := route.Compile(route.DModK(topo.MustBuild(topo.Cluster128)))
	if err != nil {
		t.Fatal(err)
	}
	if hsd.ClimbWidth(hsd.NewAnalyzer(healthy)) == 0 {
		t.Fatal("the healthy arena takes no climbing replay; its self pair went untested there")
	}
	for name, c := range map[string]*route.Compiled{"healthy": healthy, "faulted": faulted} {
		n := c.Topology().NumHosts()
		o := order.Random(n, nil, 5)
		st := cps.Shift(n).Stage(1)
		self := 3
		st[self].Dst = st[self].Src
		if c.NumBroken() > 0 {
			r, d := brokenRank(c, o, self)
			st[r].Dst = d
		}
		var raw, walked [][2]int
		for _, p := range st {
			src, dst := o.HostOf[p.Src], o.HostOf[p.Dst]
			raw = append(raw, [2]int{src, dst})
			if !c.Broken(src, dst) {
				walked = append(walked, [2]int{src, dst})
			}
		}
		broken := len(raw) - len(walked)
		if (c.NumBroken() > 0) != (broken > 0) {
			t.Fatalf("%s: %d broken pairs in the stage", name, broken)
		}
		want, err := hsd.NewAnalyzer(c).Stage(served(c, o, st))
		if err != nil {
			t.Fatal(err)
		}
		if want.Flows != len(st)-1-broken {
			t.Fatalf("%s: filter-then-Stage counts %d flows of %d pairs, want %d", name, want.Flows, len(st), len(st)-1-broken)
		}
		tracking := hsd.NewAnalyzer(c)
		tracking.SetTrackFlows(true)
		seq := oneStage{n, st}
		rep, errA := hsd.Analyze(c, o, seq)
		for what, stage := range map[string]func() (hsd.StageResult, error){
			"Stage":    func() (hsd.StageResult, error) { return hsd.NewAnalyzer(c).Stage(raw) },
			"tracking": func() (hsd.StageResult, error) { return tracking.Stage(raw) },
			"walk":     func() (hsd.StageResult, error) { return hsd.NewAnalyzer(walkOnly{c.Inner()}).Stage(walked) },
			"Analyze": func() (hsd.StageResult, error) {
				if errA != nil {
					return hsd.StageResult{}, errA
				}
				return rep.Stages[0], nil
			},
		} {
			if got, err := stage(); err != nil || got != want {
				t.Errorf("%s: %s %+v, filter-then-Stage %+v (%v)", name, what, got, want, err)
			}
		}
		one := float64(want.MaxHSD)
		for _, workers := range []int{1, 2} {
			if sw, err := hsd.SweepOrderingsParallel(c, []*order.Ordering{o}, seq, workers); err != nil || sw != (hsd.Sweep{Mean: one, Min: one, Max: one}) {
				t.Errorf("%s: SweepOrderingsParallel(%d workers) %+v, want every average %v (%v)", name, workers, sw, one, err)
			}
		}
	}
}

// brokenRank returns a rank r other than skip and a destination rank d
// whose end-ports under o are a pair c marks broken.
func brokenRank(c *route.Compiled, o *order.Ordering, skip int) (r int, d int32) {
	for r := 0; r < o.Size(); r++ {
		for d := 0; d < o.Size() && r != skip; d++ {
			if c.Broken(o.HostOf[r], o.HostOf[d]) {
				return r, int32(d)
			}
		}
	}
	panic("no broken pair")
}

// TestHostileEndPorts: an ordering whose HostOf was tampered with after
// order.New validated it, and a Stage call with an end-port outside the
// fabric, are errors naming the offender — never an index panic in the
// unchecked kernel.
func TestHostileEndPorts(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	n := tp.NumHosts()
	lft := route.DModK(tp)
	c, err := route.Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	seq := cps.Shift(n)
	for _, bad := range []int{-1, n, 1 << 40} {
		o := order.Random(n, nil, 1)
		o.HostOf[17] = bad
		for _, rt := range []route.Router{c, lft} {
			calls := map[string]func() error{
				"Analyze": func() error { _, err := hsd.Analyze(rt, o, seq); return err },
				"SweepOrderingsParallel/one": func() error {
					_, err := hsd.SweepOrderingsParallel(rt, []*order.Ordering{o}, seq, 1)
					return err
				},
				"SweepOrderingsParallel": func() error {
					_, err := hsd.SweepOrderingsParallel(rt, []*order.Ordering{order.Topology(n, nil), o}, seq, 2)
					return err
				},
			}
			for name, call := range calls {
				if err := call(); err == nil || !strings.Contains(err.Error(), "rank 17") {
					t.Errorf("%s with rank 17 on end-port %d: %v, want an error naming the rank", name, bad, err)
				}
			}
		}
		for _, rt := range []route.Router{c, lft} {
			a := hsd.NewAnalyzer(rt)
			for _, pairs := range [][][2]int{{{0, 1}, {bad, 2}}, {{0, 1}, {2, bad}}, {{bad, bad}}} {
				if _, err := a.Stage(pairs); err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("%T Stage(%v): %v, want an out-of-range error", rt, pairs, err)
				}
			}
		}
	}
}

// TestSharedEndPort: an ordering whose HostOf was edited after order.New
// validated it so that two ranks share an end-port is refused, with an
// error naming both ranks — the climbing replay takes its verdict on
// ranks, which only an injective HostOf makes a verdict on end-ports.
func TestSharedEndPort(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	n := tp.NumHosts()
	lft := route.DModK(tp)
	c, err := route.Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	seq := cps.Shift(n)
	o := order.Random(n, nil, 1)
	o.HostOf[17] = o.HostOf[3]
	for _, rt := range []route.Router{c, lft} {
		calls := map[string]func() error{
			"Analyze": func() error { _, err := hsd.Analyze(rt, o, seq); return err },
			"SweepOrderingsParallel/one": func() error {
				_, err := hsd.SweepOrderingsParallel(rt, []*order.Ordering{o}, seq, 1)
				return err
			},
			"SweepOrderingsParallel": func() error {
				_, err := hsd.SweepOrderingsParallel(rt, []*order.Ordering{order.Topology(n, nil), o}, seq, 2)
				return err
			},
		}
		for name, call := range calls {
			if err := call(); err == nil || !strings.Contains(err.Error(), "ranks 3 and 17") {
				t.Errorf("%T %s with ranks 3 and 17 on end-port %d: %v, want an error naming both ranks", rt, name, o.HostOf[3], err)
			}
		}
	}
}

// TestSweepAllocs pins the shape of a sweep's garbage: the stages are
// built once and shared, analyzers belong to workers, so k orderings
// cost O(stages + k) allocations — no slice per (ordering, stage). The
// pool that builds the stages costs a fixed 6 + 2 per worker, 10 at the
// two workers here, whatever the stages and orderings. On a certified
// arena a declared rotation or exchange is its shape alone, so a sweep of
// Shift or Recursive-Doubling builds no stage: its allocations do not
// grow with the stage count, and stay under the fixed part of the
// pair-list bound. That bound, one per stage plus 42, is held on the same
// Shift and Recursive-Doubling with their declarations hidden: a stage is
// built at its final length, in one allocation.
func TestSweepAllocs(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	n := tp.NumHosts()
	c, err := route.Compile(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	var orders []*order.Ordering
	for i := 0; i < 16; i++ {
		orders = append(orders, order.Random(n, nil, int64(i)))
	}
	sweep := func(seq cps.Sequence, k int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := hsd.SweepOrderingsParallel(c, orders[:k], seq, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, seq := range []cps.Sequence{cps.Shift(n), cps.RecursiveDoubling(n)} {
		pairList := struct{ cps.Sequence }{seq} // no Rotation or Exchange method
		few, many := sweep(pairList, 2), sweep(pairList, 16)
		stages := float64(pairList.NumStages())
		if few > stages+42 {
			t.Errorf("a 2-ordering sweep of %v pair-list %s stages allocates %v times, want about one per stage", stages, seq.Name(), few)
		}
		if many-few > 14 {
			t.Errorf("%s: 14 more orderings cost %v more allocations (%v -> %v), want at most one each", seq.Name(), many-few, few, many)
		}
		if declared := sweep(seq, 2); declared > 42 {
			t.Errorf("a 2-ordering sweep of %v declared %s stages allocates %v times, want at most 42", stages, seq.Name(), declared)
		}
	}

	sampled, err := mpi.SampleStages(cps.Shift(n), []int{0, n / 2})
	if err != nil {
		t.Fatal(err)
	}
	all, two := sweep(cps.Shift(n), 2), sweep(sampled, 2)
	if all > two || all > 42 {
		t.Errorf("a 2-ordering sweep of %d declared rotations allocates %v times, of 2 of them %v: want no more, and at most 42", n-1, all, two)
	}
	if many := sweep(cps.Shift(n), 16); many-all > 14 {
		t.Errorf("14 more orderings over declared rotations cost %v more allocations (%v -> %v), want at most one each", many-all, all, many)
	}
}
