package hsd

import (
	"fmt"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// theoremTopos are complete RLFTs used to validate Theorems 1 and 2.
var theoremTopos = []topo.PGFT{
	topo.Cluster128,
	topo.Cluster324,
	topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}),
	topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2}),
	topo.MustPGFT(3, []int{6, 6, 4}, []int{1, 6, 3}, []int{1, 1, 2}),
}

func TestTheorem1ShiftContentionFree(t *testing.T) {
	// Theorems 1+2: D-Mod-K + topology order + Shift CPS gives HSD = 1
	// in every stage on every complete RLFT.
	for _, g := range theoremTopos {
		tp := topo.MustBuild(g)
		lft := route.DModK(tp)
		o := order.Topology(tp.NumHosts(), nil)
		rep, err := Analyze(lft, o, cps.Shift(tp.NumHosts()))
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if !rep.ContentionFree() {
			t.Errorf("%v: shift max HSD = %d, want 1", g, rep.MaxHSD())
		}
		if rep.AvgMaxHSD() != 1.0 {
			t.Errorf("%v: shift avg max HSD = %v, want 1.0", g, rep.AvgMaxHSD())
		}
	}
}

func TestUnidirectionalCPSContentionFree(t *testing.T) {
	// Shift is a superset of all unidirectional CPS, so they must all be
	// contention free too.
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	o := order.Topology(n, nil)
	for _, seq := range []cps.Sequence{
		cps.Ring(n), cps.RingAllgather(n), cps.Binomial(n),
		cps.Dissemination(n), cps.Tournament(n),
	} {
		rep, err := Analyze(lft, o, seq)
		if err != nil {
			t.Fatalf("%s: %v", seq.Name(), err)
		}
		if !rep.ContentionFree() {
			t.Errorf("%s: max HSD = %d, want 1", seq.Name(), rep.MaxHSD())
		}
	}
}

func TestTopoAwareRecursiveDoublingContentionFree(t *testing.T) {
	// Section VI: the tree-structured recursive doubling keeps HSD = 1
	// under D-Mod-K with topology ordering on full RLFTs.
	for _, g := range theoremTopos {
		tp := topo.MustBuild(g)
		lft := route.DModK(tp)
		seq, err := cps.TopoAwareRecursiveDoubling(g.M)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		o := order.Topology(tp.NumHosts(), nil)
		rep, err := Analyze(lft, o, seq)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if !rep.ContentionFree() {
			t.Errorf("%v: topo-aware RD max HSD = %d, want 1", g, rep.MaxHSD())
		}
	}
}

func TestCyclicPlacement(t *testing.T) {
	// Cyclic (round-robin over leaves) rank distribution relabels hosts
	// in a way that commutes with the D-Mod-K spread: the Shift family
	// stays contention free on full RLFTs. The Section VI schedule
	// survives it only where the relabeling is a full symmetry of the
	// tree (the 2-level 324 transposes its levels), not on the
	// asymmetric 18x18x6; the flat XOR congests under any placement.
	for _, tc := range []struct {
		g     topo.PGFT
		taMax int
		taAvg string
	}{
		{topo.Cluster324, 1, "1.000"},
		{topo.Cluster1944, 2, "1.188"},
	} {
		tp := topo.MustBuild(tc.g)
		lft := route.DModK(tp)
		n := tp.NumHosts()
		o, err := order.Cyclic(tp)
		if err != nil {
			t.Fatal(err)
		}
		ta, err := cps.TopoAwareRecursiveDoubling(tc.g.M)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range []cps.Sequence{cps.Shift(n), cps.Ring(n), cps.Dissemination(n), ta, cps.RecursiveDoubling(n)} {
			rep, err := Analyze(lft, o, seq)
			if err != nil {
				t.Fatalf("%d hosts, %s: %v", n, seq.Name(), err)
			}
			switch seq.Name() {
			case ta.Name():
				if rep.MaxHSD() != tc.taMax || fmt.Sprintf("%.3f", rep.AvgMaxHSD()) != tc.taAvg {
					t.Errorf("%d hosts, %s: max HSD %d avg %.3f, want %d avg %s",
						n, seq.Name(), rep.MaxHSD(), rep.AvgMaxHSD(), tc.taMax, tc.taAvg)
				}
			case "recursive-doubling":
				if rep.MaxHSD() < 2 {
					t.Errorf("%d hosts, flat recursive doubling: max HSD %d, want > 1", n, rep.MaxHSD())
				}
			default:
				if !rep.ContentionFree() {
					t.Errorf("%d hosts, %s: max HSD %d, want 1", n, seq.Name(), rep.MaxHSD())
				}
			}
		}
	}
}

func TestPlainRecursiveDoublingCongestsUnderRandomOrder(t *testing.T) {
	// The flat XOR pattern with a random order creates hot spots (the
	// Figure 2/3 "Butterfly" behaviour).
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	rep, err := Analyze(lft, order.Random(n, nil, 1), cps.RecursiveDoubling(n))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxHSD() < 2 {
		t.Errorf("random-order recursive doubling max HSD = %d, want >= 2", rep.MaxHSD())
	}
}

func TestAdversarialRingOversubscription(t *testing.T) {
	// Section II: the adversarial order drives one leaf up-port to
	// carry ~K flows (oversubscription 18 on the 1944-node cluster; we
	// verify the K-fold shape on the smaller 324 cluster).
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	o, err := order.Adversarial(tp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(lft, o, cps.Ring(tp.NumHosts()))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.MaxHSD(); got < 16 || got > 19 {
		t.Errorf("adversarial ring max HSD = %d, want ~K=18", got)
	}
}

func TestPartialShiftContentionFree(t *testing.T) {
	// Table 3 partial cases: random exclusions with rank-compacted
	// D-Mod-K and topology ordering. Every-other-host and contiguous
	// removals must stay contention free; fully random removals are
	// exercised in the Table 3 experiment itself.
	tp := topo.MustBuild(topo.Cluster324)
	n := tp.NumHosts()
	// Remove one full leaf (hosts 36..53).
	var active []int
	for j := 0; j < n; j++ {
		if j >= 36 && j < 54 {
			continue
		}
		active = append(active, j)
	}
	lft, err := route.DModKActive(tp, active)
	if err != nil {
		t.Fatal(err)
	}
	o := order.Topology(n, active)
	rep, err := Analyze(lft, o, cps.Shift(len(active)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ContentionFree() {
		t.Errorf("leaf-removed shift max HSD = %d, want 1", rep.MaxHSD())
	}
}

func TestSyncEffectiveBandwidth(t *testing.T) {
	rep := &Report{Stages: []StageResult{
		{MaxHSD: 1, Flows: 10},
		{MaxHSD: 3, Flows: 10},
		{MaxHSD: 0, Flows: 0}, // skipped
	}}
	if got, want := rep.SyncEffectiveBandwidth(), 2.0/4.0; got != want {
		t.Errorf("SyncEffectiveBandwidth = %v, want %v", got, want)
	}
	empty := &Report{}
	if got := empty.SyncEffectiveBandwidth(); got != 1 {
		t.Errorf("empty report bandwidth = %v, want 1", got)
	}
}

func TestReportAggregates(t *testing.T) {
	rep := &Report{Stages: []StageResult{
		{MaxHSD: 1, Flows: 4},
		{MaxHSD: 5, Flows: 4},
		{MaxHSD: 2, Flows: 4},
	}}
	if rep.MaxHSD() != 5 {
		t.Errorf("MaxHSD = %d, want 5", rep.MaxHSD())
	}
	if got, want := rep.AvgMaxHSD(), (1+5+2)/3.0; got != want {
		t.Errorf("AvgMaxHSD = %v, want %v", got, want)
	}
	if rep.ContentionFree() {
		t.Error("contended report claims freedom")
	}
}

func TestSweepOrderings(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	var orders []*order.Ordering
	for seed := int64(0); seed < 5; seed++ {
		orders = append(orders, order.Random(n, nil, seed))
	}
	sw, err := SweepOrderingsParallel(lft, orders, cps.Ring(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Min > sw.Mean || sw.Mean > sw.Max {
		t.Errorf("inconsistent sweep: min=%v mean=%v max=%v", sw.Min, sw.Mean, sw.Max)
	}
	if sw.Mean <= 1.0 {
		t.Errorf("random ring mean HSD = %v, expected > 1", sw.Mean)
	}
	empty, err := SweepOrderingsParallel(lft, nil, cps.Ring(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	if empty != (Sweep{}) {
		t.Errorf("empty sweep = %+v", empty)
	}
}

func TestAnalyzeSizeMismatch(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	if _, err := Analyze(lft, order.Topology(128, nil), cps.Ring(64)); err == nil {
		t.Error("sequence/ordering size mismatch accepted")
	}
	if _, err := Analyze(lft, order.Topology(64, nil), cps.Ring(64)); err == nil {
		t.Error("ordering/topology host-count mismatch accepted")
	}
}

func TestStageSelfFlowsSkipped(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	sr, err := NewAnalyzer(lft).Stage([][2]int{{3, 3}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if sr.MaxHSD != 1 || sr.Flows != 1 {
		t.Errorf("max HSD = %d over %d flows, want 1 over 1: a self pair is no flow", sr.MaxHSD, sr.Flows)
	}
}

func TestLinkLoadsExposeCounters(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	a := NewAnalyzer(lft)
	if _, err := a.Stage([][2]int{{0, 127}}); err != nil {
		t.Fatal(err)
	}
	up, down := a.LinkLoads(nil, nil)
	ups, downs := 0, 0
	for _, v := range up {
		ups += int(v)
	}
	for _, v := range down {
		downs += int(v)
	}
	// One flow across a 2-level tree: 2 up hops, 2 down hops.
	if ups != 2 || downs != 2 {
		t.Errorf("hops = %d up / %d down, want 2/2", ups, downs)
	}
}

func TestSModKEquallyContentionFreeForShift(t *testing.T) {
	// The source-based mirror of D-Mod-K is just as contention free for
	// permutation traffic — the paper prefers D-Mod-K because only a
	// destination-based rule fits InfiniBand forwarding tables.
	for _, g := range theoremTopos {
		tp := topo.MustBuild(g)
		rt := route.NewSModK(tp)
		o := order.Topology(tp.NumHosts(), nil)
		rep, err := Analyze(rt, o, cps.Shift(tp.NumHosts()))
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if !rep.ContentionFree() {
			t.Errorf("%v: s-mod-k shift max HSD = %d, want 1", g, rep.MaxHSD())
		}
	}
}

func TestLevelLoads(t *testing.T) {
	// Two flows sharing a leaf up-port on the Figure 1 tree: the hot
	// spot must show at level 1 (leaf-to-spine), not at the host links.
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	lft := route.DModK(tp)
	a := NewAnalyzer(lft)
	if _, err := a.Stage([][2]int{{0, 4}, {1, 8}}); err != nil {
		t.Fatal(err)
	}
	up, down := a.LevelLoads()
	if up[0] != 1 {
		t.Errorf("host-link level max = %d, want 1", up[0])
	}
	if up[1] != 2 {
		t.Errorf("fabric level max = %d, want 2 (the shared up-port)", up[1])
	}
	if down[0] != 1 || down[1] != 1 {
		t.Errorf("down levels = %v/%v, want 1/1", down[0], down[1])
	}
}
