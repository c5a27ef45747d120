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

// rotationArenas returns certified arenas for the rotation wall: the
// climbing replay of rlft2:4,8 and Cluster128, and of every seeded
// RandPGFT draw of two hosts or more whose D-Mod-K arena certifies
// Theorem 2.
func rotationArenas(t *testing.T) map[string]*route.Compiled {
	t.Helper()
	g, err := topo.ParseSpec("rlft2:4,8")
	if err != nil {
		t.Fatal(err)
	}
	take := map[string]*route.Compiled{
		"rlft2:4,8":  compileEngine(t, g, "dmodk"),
		"Cluster128": compileEngine(t, topo.Cluster128, "dmodk"),
	}
	drawn := 0
	for seed := int64(1); seed <= 40; seed++ {
		g := invariant.RandPGFT(seed)
		if c := compileEngine(t, g, "dmodk"); g.NumHosts() >= 2 && c.ClimbWidth() > 0 {
			take[g.String()] = c
			drawn++
		}
	}
	for name, c := range take {
		if c.ClimbWidth() == 0 {
			t.Fatalf("%s: no climbing replay, want one", name)
		}
	}
	if drawn < 10 {
		t.Fatalf("only %d certified RandPGFT draws", drawn)
	}
	return take
}

// TestRotationClimbsDifferential is the wall around the rotation kernel:
// on every arena rotationArenas certifies, under the topology order, a
// random one and a random partial job, every stage of Shift, Ring and
// Dissemination must read the same from the two runs of the keys
// (climbRun), from the pair-list climbs and from the full replay; and
// Analyze, which counts each such stage by its runs, and the sweeps must
// equal that full replay.
func TestRotationClimbsDifferential(t *testing.T) {
	for name, c := range rotationArenas(t) {
		n := c.Topology().NumHosts()
		var active []int // every other end-port
		for h := 0; h < n; h += 2 {
			active = append(active, h)
		}
		orders := []*order.Ordering{order.Topology(n, nil), order.Random(n, nil, 3)}
		if len(active) >= 2 {
			orders = append(orders, order.Random(n, active, 4))
		}
		runs, list, full := hsd.NewAnalyzer(c), hsd.NewAnalyzer(c), hsd.NewAnalyzer(c)
		for _, o := range orders {
			size := o.Size()
			for _, seq := range []cps.Sequence{cps.Shift(size), cps.Ring(size), cps.Dissemination(size)} {
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
					st, d := seq.Stage(s), seq.(cps.Rotating).Rotation(s)
					want := hsd.Replay(full, st, o)
					listed, ok := hsd.Climbs(list, st, o)
					if got := hsd.Rotation(runs, d, o); !ok || got != want || listed != want {
						t.Fatalf("%s stage %d (d=%d): runs %+v, pair-list climbs %+v (taken %v), full replay %+v", what, s, d, got, listed, ok, want)
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

// FuzzRotationClimbs draws a small certified fabric, an ordering and a
// displacement, and holds Analyze and SweepOrderingsParallel over the
// Shift stage of that displacement (declared through a sampled Shift) and
// a Ring to the full count of the stage's pairs.
func FuzzRotationClimbs(f *testing.F) {
	for _, seed := range []int64{2, 7, 9, 13, 20, 28, 38} {
		f.Add(seed, int64(1), 1)
		f.Add(seed, seed*31, 5)
	}
	f.Fuzz(func(t *testing.T, fabric, ordering int64, disp int) {
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
		d := 1 + int(uint(disp)%uint(n-1))
		shift, err := mpi.SampleStages(cps.Shift(n), []int{d - 1})
		if err != nil {
			t.Fatal(err)
		}
		o := order.Random(n, nil, ordering)
		for _, seq := range []cps.Sequence{shift, cps.Ring(n)} {
			want, err := hsd.NewAnalyzer(c).Stage(served(c, o, seq.Stage(0)))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := hsd.Analyze(c, o, seq)
			if err != nil || rep.Stages[0] != want || rep.Climbed != 1 {
				t.Fatalf("%v %s d=%d under %s: Analyze %+v (climbed %d), full count %+v (%v)", g, seq.Name(), d, o.Label, rep.Stages, rep.Climbed, want, err)
			}
			v := float64(want.MaxHSD)
			sw, err := hsd.SweepOrderingsParallel(c, []*order.Ordering{o, o}, seq, 2)
			if err != nil || sw != (hsd.Sweep{Mean: v, Min: v, Max: v}) {
				t.Fatalf("%v %s d=%d under %s: SweepOrderingsParallel %+v, full count %v (%v)", g, seq.Name(), d, o.Label, sw, v, err)
			}
		}
	})
}

func TestFigure1ShiftBy4(t *testing.T) {
	// Figure 1: 16 hosts, destination = (source+4) mod 16. With the
	// routing-aware order every link carries one flow; with a random
	// order hot spots appear (the figure shows 3).
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	lft := route.DModK(tp)
	seq, err := mpi.SampleStages(cps.Shift(16), []int{3}) // displacement 4
	if err != nil {
		t.Fatal(err)
	}
	good, err := hsd.Analyze(lft, order.Topology(16, nil), seq)
	if err != nil {
		t.Fatal(err)
	}
	if !good.ContentionFree() {
		t.Errorf("ordered shift-by-4 max HSD = %d, want 1", good.MaxHSD())
	}
	hot := 0
	for seed := int64(0); seed < 10; seed++ {
		bad, err := hsd.Analyze(lft, order.Random(16, nil, seed), seq)
		if err != nil {
			t.Fatal(err)
		}
		if bad.MaxHSD() > 1 {
			hot++
		}
	}
	if hot < 5 {
		t.Errorf("only %d of 10 random orders caused hot spots", hot)
	}
}
