package hsd

import (
	"runtime"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// TestAnalyzeParallelMatchesSequential: Analyze, which fans stages out
// over GOMAXPROCS workers, equals the stage-by-stage Stage loop of one
// analyzer over a plain Cluster324 LFT, at 1, 2 and 8 procs.
func TestAnalyzeParallelMatchesSequential(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	n := tp.NumHosts()
	a := NewAnalyzer(lft)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, o := range []*order.Ordering{order.Topology(n, nil), order.Random(n, nil, 3)} {
			for _, seq := range []cps.Sequence{cps.Shift(n), cps.RecursiveDoubling(n), cps.Binomial(n)} {
				rep, err := Analyze(lft, o, seq)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Stages) != seq.NumStages() {
					t.Fatalf("%s %s procs=%d: %d stages, want %d", seq.Name(), o.Label, procs, len(rep.Stages), seq.NumStages())
				}
				for s := range rep.Stages {
					var pairs [][2]int
					for _, p := range seq.Stage(s) {
						pairs = append(pairs, [2]int{o.HostOf[p.Src], o.HostOf[p.Dst]})
					}
					if want, err := a.Stage(pairs); err != nil || rep.Stages[s] != want {
						t.Fatalf("%s %s procs=%d stage %d: Analyze %+v, Stage %+v (%v)", seq.Name(), o.Label, procs, s, rep.Stages[s], want, err)
					}
				}
			}
		}
	}
}

// TestAnalyzeParallelValidation: the parallel sweep checks every
// ordering before it fans out, so a size or host-count mismatch in any
// ordering of the list is an error (Analyze's own checks are
// TestAnalyzeSizeMismatch).
func TestAnalyzeParallelValidation(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	good := order.Topology(128, nil)
	for _, bad := range []struct {
		what string
		o    *order.Ordering
		seq  cps.Sequence
	}{
		{"sequence/ordering size mismatch", good, cps.Ring(64)},
		{"ordering/topology host-count mismatch", order.Topology(64, nil), cps.Ring(64)},
	} {
		for _, workers := range []int{1, 4} {
			if _, err := SweepOrderingsParallel(lft, []*order.Ordering{good, bad.o}, bad.seq, workers); err == nil {
				t.Errorf("%s accepted by the sweep at %d workers", bad.what, workers)
			}
		}
	}
}

func TestAnalyzeEmptySequence(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	// A single-rank job has zero shift stages.
	o := order.Topology(128, []int{5})
	rep, err := Analyze(lft, o, cps.Shift(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 0 {
		t.Errorf("stages = %d, want 0", len(rep.Stages))
	}
}

// TestAnalyzeWalkError: over a router without an arena, a pair its
// tables cannot route is an error, not a skipped pair.
func TestAnalyzeWalkError(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	lft := route.DModK(tp)
	// Corrupt the table to force a walk error.
	leaf := tp.LeafOf(0)
	lft.SetOutPort(leaf.ID, 127, topo.None)
	o := order.Topology(128, nil)
	if _, err := Analyze(lft, o, cps.Shift(128)); err == nil {
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
	if err != nil || empty != (Sweep{}) {
		t.Errorf("empty sweep = %+v, %v", empty, err)
	}
}
