package hsd

import (
	"testing"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

func TestAnalyzeParallelMatchesSequential(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	for _, ord := range []*order.Ordering{order.Topology(n, nil), order.Random(n, nil, 3)} {
		for _, seq := range []cps.Sequence{cps.Shift(n), cps.RecursiveDoubling(n), cps.Binomial(n)} {
			seqRep, err := Analyze(lft, ord, seq)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8, 0} {
				parRep, err := AnalyzeParallel(lft, ord, seq, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(parRep.Stages) != len(seqRep.Stages) {
					t.Fatalf("%s w=%d: stage counts differ", seq.Name(), workers)
				}
				for s := range seqRep.Stages {
					if parRep.Stages[s] != seqRep.Stages[s] {
						t.Fatalf("%s w=%d stage %d: %+v != %+v",
							seq.Name(), workers, s, parRep.Stages[s], seqRep.Stages[s])
					}
				}
			}
		}
	}
}

func TestAnalyzeParallelValidation(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	if _, err := AnalyzeParallel(lft, order.Topology(128, nil), cps.Ring(64), 4); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := AnalyzeParallel(lft, order.Topology(64, nil), cps.Ring(64), 4); err == nil {
		t.Error("host-count mismatch accepted")
	}
}

func TestAnalyzeParallelEmptySequence(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	// A single-rank job has zero shift stages.
	o := order.Topology(128, []int{5})
	rep, err := AnalyzeParallel(lft, o, cps.Shift(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 0 {
		t.Errorf("stages = %d, want 0", len(rep.Stages))
	}
}

func TestAnalyzeParallelPropagatesErrors(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	// Corrupt the table to force a walk error.
	leaf := tp.LeafOf(0)
	lft.SetOutPort(leaf.ID, 127, topo.None)
	o := order.Topology(128, nil)
	if _, err := AnalyzeParallel(lft, o, cps.Shift(128), 4); err == nil {
		t.Error("walk error swallowed")
	}
}

func TestSweepOrderingsParallelMatchesSequential(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	var orders []*order.Ordering
	for seed := int64(0); seed < 8; seed++ {
		orders = append(orders, order.Random(n, nil, seed))
	}
	seq := cps.Dissemination(n)
	want, err := SweepOrderingsParallel(lft, orders, seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepOrderingsParallel(lft, orders, seq, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("parallel sweep %+v != sequential %+v", got, want)
	}
	empty, err := SweepOrderingsParallel(lft, nil, seq, 4)
	if err != nil || empty.Samples != 0 {
		t.Errorf("empty sweep = %+v, %v", empty, err)
	}
}
