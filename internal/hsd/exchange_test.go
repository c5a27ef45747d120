package hsd_test

import (
	"fmt"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/mpi"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// TestExchangeClimbsDifferential is the wall around the exchange kernel:
// on every arena rotationArenas certifies, under the topology order, a
// random one and a random partial job, every stage of Recursive-Doubling
// and Recursive-Halving that declares an exchange must read the same
// from the keys read at i^m (climbXor), from the pair-list climbs and
// from the full replay; and Analyze, which counts each such stage by its
// declaration and the proxy stages by their pairs, and the sweeps must
// equal that full replay.
func TestExchangeClimbsDifferential(t *testing.T) {
	for name, c := range rotationArenas(t) {
		n := c.Topology().NumHosts()
		var active []int // every other end-port
		for h := 0; h < n; h += 2 {
			active = append(active, h)
		}
		orders := []*order.Ordering{order.Topology(n, nil), order.Random(n, nil, 5)}
		if len(active) >= 2 {
			orders = append(orders, order.Random(n, active, 6))
		}
		xor, list, full := hsd.NewAnalyzer(c), hsd.NewAnalyzer(c), hsd.NewAnalyzer(c)
		for _, o := range orders {
			size := o.Size()
			for _, seq := range []cps.Sequence{cps.RecursiveDoubling(size), cps.RecursiveHalving(size)} {
				what := fmt.Sprintf("%s %s under %s", name, seq.Name(), o.Label)
				rep, err := hsd.Analyze(c, o, seq)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if rep.Climbed != seq.NumStages() {
					t.Fatalf("%s: Analyze climbed %d of %d stages", what, rep.Climbed, seq.NumStages())
				}
				var byHand hsd.Report
				for s := 0; s < seq.NumStages(); s++ {
					st := seq.Stage(s)
					want := hsd.Replay(full, st, o)
					listed, ok := hsd.Climbs(list, st, o)
					if !ok || listed != want {
						t.Fatalf("%s stage %d: pair-list climbs %+v (taken %v), full replay %+v", what, s, listed, ok, want)
					}
					if m, span := seq.(cps.Exchanging).Exchange(s); m > 0 {
						if got := hsd.Exchange(xor, m, span, o); got != want {
							t.Fatalf("%s stage %d (m=%d over %d): exchange climbs %+v, full replay %+v", what, s, m, span, got, want)
						}
					}
					if rep.Stages[s] != want {
						t.Fatalf("%s stage %d: Analyze %+v, full replay %+v", what, s, rep.Stages[s], want)
					}
					byHand.Stages = append(byHand.Stages, want)
				}
				v := byHand.AvgMaxHSD()
				for _, workers := range []int{1, 3} {
					sw, err := hsd.SweepOrderingsParallel(c, []*order.Ordering{o}, seq, workers)
					if err != nil || sw != (hsd.Sweep{Mean: v, Min: v, Max: v}) {
						t.Fatalf("%s: SweepOrderingsParallel(%d workers) %+v, by hand %v (%v)", what, workers, sw, v, err)
					}
				}
			}
		}
	}
}

// FuzzExchangeClimbs draws a small certified fabric, a job on a prefix
// of its end-ports, an ordering and a stage, and holds Analyze and
// SweepOrderingsParallel over that stage of Recursive-Doubling and of
// Recursive-Halving (declared through a sampled sequence) to the full
// count of the stage's pairs.
func FuzzExchangeClimbs(f *testing.F) {
	for _, seed := range []int64{2, 7, 9, 13, 20, 28, 38} {
		f.Add(seed, int64(1), 0, 1)
		f.Add(seed, seed*31, 3, 2)
	}
	f.Fuzz(func(t *testing.T, fabric, ordering int64, job, stage int) {
		g := invariant.RandPGFT(fabric)
		if g.NumHosts() < 2 {
			return
		}
		tp := topo.MustBuild(g)
		c, err := route.Compile(route.DModK(tp))
		if err != nil || c.ClimbWidth() == 0 {
			return
		}
		n := tp.NumHosts()
		active := make([]int, n-int(uint(job)%uint(n-1))) // 2..n end-ports
		for h := range active {
			active[h] = h
		}
		o := order.Random(n, active, ordering)
		for _, inner := range []cps.Sequence{cps.RecursiveDoubling(len(active)), cps.RecursiveHalving(len(active))} {
			s := int(uint(stage) % uint(inner.NumStages()))
			seq, err := mpi.SampleStages(inner, []int{s})
			if err != nil {
				t.Fatal(err)
			}
			want, err := hsd.NewAnalyzer(c).Stage(served(c, o, seq.Stage(0)))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := hsd.Analyze(c, o, seq)
			if err != nil || rep.Stages[0] != want || rep.Climbed != 1 {
				t.Fatalf("%v %s stage %d under %s: Analyze %+v (climbed %d), full count %+v (%v)", g, inner.Name(), s, o.Label, rep.Stages, rep.Climbed, want, err)
			}
			v := float64(want.MaxHSD)
			sw, err := hsd.SweepOrderingsParallel(c, []*order.Ordering{o, o}, seq, 2)
			if err != nil || sw != (hsd.Sweep{Mean: v, Min: v, Max: v}) {
				t.Fatalf("%v %s stage %d under %s: SweepOrderingsParallel %+v, full count %v (%v)", g, inner.Name(), s, o.Label, sw, v, err)
			}
		}
	})
}

// TestClimbCounterWidth pins the climbing replay's counter width: its
// uint16 counters hold every load of a fabric below 65,536 end-ports, so
// climbWidth takes the full count at 65,536 and above, as it does on
// max:3,32, a certified arena of exactly 65,536 end-ports.
func TestClimbCounterWidth(t *testing.T) {
	for hosts, want := range map[int]bool{1: true, 1944: true, 65535: true, 65536: false, 1 << 20: false} {
		if got := hsd.ClimbCounted(hosts); got != want {
			t.Errorf("ClimbCounted(%d) = %v, want %v", hosts, got, want)
		}
	}
	g, err := topo.MaximalRLFT(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := route.Compile(route.DModK(topo.MustBuild(g)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Topology().NumHosts() != 65536 || c.ClimbWidth() == 0 {
		t.Fatalf("%v: %d end-ports, arena climb width %d; want 65536 and a certified arena", g, c.Topology().NumHosts(), c.ClimbWidth())
	}
	if w := hsd.ClimbWidth(hsd.NewAnalyzer(c)); w != 0 {
		t.Fatalf("%v: climbing replay of width %d over 65536 end-ports, want the full count", g, w)
	}
}

// TestClimbsPlantedWide plants a Cluster1944 stage that loads one
// L2->L3 up link with 324 flows, more than a byte counts: every source of
// the first pod sends to one of the five end-ports of the other pods that
// D-Mod-K reaches over the same leaf and level-2 up ports (end-ports 324k
// under the topology order). The stage is an incast, so no sweep climbs
// it; the climbing replay's count is held to the full replay's on every
// switch up link anyway, and to its maximum up load.
func TestClimbsPlantedWide(t *testing.T) {
	c := compileEngine(t, topo.Cluster1944, "dmodk")
	tp := c.Topology()
	n := tp.NumHosts()
	o := order.Topology(n, nil)
	var st cps.Stage
	for r := int32(0); r < 324; r++ {
		st = append(st, cps.Pair{Src: r, Dst: 324 * (1 + r%5)})
	}
	got, loads := hsd.ClimbLoads(hsd.NewAnalyzer(c), st, o)
	full := hsd.NewAnalyzer(c)
	want := hsd.Replay(full, st, o)
	up, _ := full.LinkLoads(nil, nil)
	wide := 0
	for l := range tp.Links {
		if tp.Links[l].Level < 2 {
			continue
		}
		if int32(loads[l]) != up[l] {
			t.Fatalf("link %d (level %d): climbs count %d flows up, the full replay %d", l, tp.Links[l].Level, loads[l], up[l])
		}
		if tp.Links[l].Level == 3 && up[l] > 255 {
			wide++
		}
	}
	if wide != 1 || got.MaxUpHSD != want.MaxUpHSD || want.MaxUpHSD != 324 {
		t.Fatalf("%d L2->L3 links above 255 flows, climbs' maximum up load %d, the full replay's %d; want one link, 324 and 324",
			wide, got.MaxUpHSD, want.MaxUpHSD)
	}
}
