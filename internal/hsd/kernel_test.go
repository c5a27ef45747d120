package hsd_test

import (
	"errors"
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

// sweepByHand aggregates per-ordering AvgMaxHSD values the way the sweeps
// promise to, from one sequential Analyze per ordering.
func sweepByHand(t *testing.T, rt route.Router, orders []*order.Ordering, seq cps.Sequence) hsd.Sweep {
	t.Helper()
	sw := hsd.Sweep{Samples: len(orders)}
	for i, o := range orders {
		rep, err := hsd.Analyze(rt, o, seq)
		if err != nil {
			t.Fatal(err)
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

// wantWide is the cell width the arenas of the running test must have.
var wantWide bool

// bothWidths runs a differential test at the cell width its fabrics
// compile to (16 bits, all of them) and again with every arena forced to
// 32 bits: one storage, one encoding, two widths, the same answers.
func bothWidths(t *testing.T, body func(*testing.T)) {
	body(t)
	t.Run("32-bit cells", func(t *testing.T) {
		route.ForceWideCells(t)
		wantWide = true
		t.Cleanup(func() { wantWide = false })
		body(t)
	})
}

// TestKernelDifferential is the wall around the replay kernel: seeded
// random fabrics (plus two shapes whose hosts have several uplinks, i.e.
// private rows with no head) x {healthy, leniently compiled faulted}
// arenas x {Shift, sampled Shift, Recursive-Doubling, Ring} x {topology,
// random} orderings. On every served stage the kernel must agree with an
// analyzer that walks the same tables hop by hop — summary, per-link and
// per-level loads — and every driver built on it (AnalyzeServed, Analyze,
// AnalyzeParallel, the sweeps) with its sequential, filter-then-Stage or
// by-hand form.
func TestKernelDifferential(t *testing.T) { bothWidths(t, testKernelDifferential) }

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
		seqs := []cps.Sequence{cps.Shift(n), sampled, cps.RecursiveDoubling(n), cps.Ring(n)}
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
				if c.Wide() != wantWide {
					t.Fatalf("%v %s %s: arena wide = %v, want %v", g, engName, fname, c.Wide(), wantWide)
				}
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
// kernel's Stage with a Walk of c's own tables, and AnalyzeServed with
// that filter-then-Stage loop.
func checkStages(t *testing.T, what string, c *route.Compiled, o *order.Ordering, seq cps.Sequence) {
	t.Helper()
	kernel, walk := hsd.NewAnalyzer(c), hsd.NewAnalyzer(walkOnly{c.Inner()})
	served, err := hsd.AnalyzeServed(c, o, seq)
	if err != nil {
		t.Fatalf("%s: AnalyzeServed: %v", what, err)
	}
	nl := len(c.Topology().Links)
	for s := 0; s < seq.NumStages(); s++ {
		var pairs [][2]int
		for _, p := range seq.Stage(s) {
			src, dst := o.HostOf[p.Src], o.HostOf[p.Dst]
			if src != dst && !c.Broken(src, dst) {
				pairs = append(pairs, [2]int{src, dst})
			}
		}
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
		if served.Stages[s] != want {
			t.Fatalf("%s stage %d: AnalyzeServed %+v, filter-then-Stage %+v", what, s, served.Stages[s], want)
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

// checkDrivers compares the unfiltered drivers over c with their
// references. An arena with a broken pair on the sequence's path must
// make every one of them fail with ErrNoPath instead.
func checkDrivers(t *testing.T, what string, c *route.Compiled, orders []*order.Ordering, seq cps.Sequence) {
	t.Helper()
	if c.NumBroken() > 0 {
		_, errA := hsd.Analyze(c, orders[1], seq)
		_, errP := hsd.AnalyzeParallel(c, orders[1], seq, 3)
		_, errS := hsd.SweepOrderingsParallel(c, orders, seq, 2)
		hits := false // does the sequence touch a broken pair under orders[1]?
		for s := 0; s < seq.NumStages() && !hits; s++ {
			for _, p := range seq.Stage(s) {
				hits = hits || c.Broken(orders[1].HostOf[p.Src], orders[1].HostOf[p.Dst])
			}
		}
		for _, err := range []error{errA, errP, errS} {
			if hits && !errors.Is(err, route.ErrNoPath) {
				t.Fatalf("%s: a broken pair on the path answered %v, want ErrNoPath", what, err)
			}
		}
		return
	}
	for _, o := range orders[:2] {
		want, err := hsd.Analyze(walkOnly{c.Inner()}, o, seq)
		if err != nil {
			t.Fatalf("%s: walk Analyze: %v", what, err)
		}
		got, err := hsd.Analyze(c, o, seq)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s: Analyze over the arena differs from the walk (%v)", what, o.Label, err)
		}
		for _, workers := range []int{1, 3} {
			par, err := hsd.AnalyzeParallel(c, o, seq, workers)
			if err != nil || !reflect.DeepEqual(par, want) {
				t.Fatalf("%s %s: AnalyzeParallel(%d) differs from Analyze (%v)", what, o.Label, workers, err)
			}
		}
	}
	// One ordering against many workers splits its stages; three against
	// two does not; both must reproduce the per-ordering averages.
	for _, k := range []int{1, len(orders)} {
		want := sweepByHand(t, walkOnly{c.Inner()}, orders[:k], seq)
		for _, workers := range []int{1, 2, 7} {
			if got, err := hsd.SweepOrderingsParallel(c, orders[:k], seq, workers); err != nil || got != want {
				t.Fatalf("%s: SweepOrderingsParallel(%d orderings, %d workers) %+v, by hand %+v (%v)", what, k, workers, got, want, err)
			}
		}
	}
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
				"Analyze":         func() error { _, err := hsd.Analyze(rt, o, seq); return err },
				"AnalyzeParallel": func() error { _, err := hsd.AnalyzeParallel(rt, o, seq, 2); return err },
				"SweepOrderingsParallel/one": func() error {
					_, err := hsd.SweepOrderingsParallel(rt, []*order.Ordering{o}, seq, 1)
					return err
				},
				"SweepOrderingsParallel": func() error {
					_, err := hsd.SweepOrderingsParallel(rt, []*order.Ordering{order.Topology(n, nil), o}, seq, 2)
					return err
				},
			}
			if rt == route.Router(c) {
				calls["AnalyzeServed"] = func() error { _, err := hsd.AnalyzeServed(c, o, seq); return err }
			}
			for name, call := range calls {
				if err := call(); err == nil || !strings.Contains(err.Error(), "rank 17") {
					t.Errorf("%s with rank 17 on end-port %d: %v, want an error naming the rank", name, bad, err)
				}
			}
		}
		a := hsd.NewAnalyzer(c)
		for _, pairs := range [][][2]int{{{0, 1}, {bad, 2}}, {{0, 1}, {2, bad}}} {
			if _, err := a.Stage(pairs); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("Stage(%v): %v, want an out-of-range error", pairs, err)
			}
		}
	}
}

// TestSweepAllocs pins the shape of a sweep's garbage: the stages are
// built once and shared, analyzers belong to workers, so k orderings
// cost O(stages + k) allocations — no slice per (ordering, stage).
func TestSweepAllocs(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	n := tp.NumHosts()
	c, err := route.Compile(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	seq := cps.Shift(n)
	var orders []*order.Ordering
	for i := 0; i < 16; i++ {
		orders = append(orders, order.Random(n, nil, int64(i)))
	}
	sweep := func(k int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := hsd.SweepOrderingsParallel(c, orders[:k], seq, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := sweep(2), sweep(16)
	stages := float64(seq.NumStages())
	if few > stages+32 {
		t.Errorf("a 2-ordering sweep of %v stages allocates %v times, want about one per stage", stages, few)
	}
	if many-few > 14 {
		t.Errorf("14 more orderings cost %v more allocations (%v -> %v), want at most one each", many-few, few, many)
	}
}
