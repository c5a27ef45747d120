package hsd_test

import (
	"reflect"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// TestAnalyzeServedDifferential holds Analyze to the served-pair rule
// over whole sequences on seeded random RLFTs: on a healthy arena it
// equals the Stage loop over every translated pair, unfiltered, and on a
// faulted one (the dmodk reroute and a fault-oblivious engine, which
// leaves pairs broken) it equals the filter-then-Stage loop — translate,
// drop self and broken pairs, Stage.
func TestAnalyzeServedDifferential(t *testing.T) {
	broken := 0
	for seed := int64(1); seed <= 8; seed++ {
		tp := topo.MustBuild(invariant.RandRLFT(seed))
		n := tp.NumHosts()
		seqs := []cps.Sequence{cps.Shift(n), cps.RecursiveDoubling(n)}
		orders := []*order.Ordering{order.Topology(n, nil), order.Random(n, nil, seed)}

		fs := fabric.NewFaultSet(tp)
		if err := fs.FailRandomFabricLinks(2, seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, name := range []string{"dmodk", "dmodk-naive"} {
			healthy, err := engine.Resolve(name, tp, engine.Options{}, nil)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			faulted, err := engine.Resolve(name, tp, engine.Options{}, fs)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			broken += faulted.Compiled.NumBroken()
			for _, seq := range seqs {
				for _, o := range orders {
					got, err := hsd.Analyze(healthy.Compiled, o, seq)
					if err != nil {
						t.Fatal(err)
					}
					if want := stagesByHand(t, healthy.Compiled, o, seq, false); !reflect.DeepEqual(got.Stages, want) {
						t.Fatalf("seed %d %s %s/%s: healthy Analyze differs from the unfiltered Stage loop", seed, name, seq.Name(), o.Label)
					}

					got, err = hsd.Analyze(faulted.Compiled, o, seq)
					if err != nil {
						t.Fatal(err)
					}
					if want := stagesByHand(t, faulted.Compiled, o, seq, true); !reflect.DeepEqual(got.Stages, want) {
						t.Fatalf("seed %d %s %s/%s: faulted Analyze differs from the filter-then-Stage loop", seed, name, seq.Name(), o.Label)
					}
				}
			}
		}
	}
	if broken == 0 {
		t.Fatal("no draw left a broken pair; the served-pair filter went untested")
	}
}

// stagesByHand runs seq's stages under o through one analyzer's Stage,
// translating ranks to end-ports and, if filter is set, keeping only the
// served pairs.
func stagesByHand(t *testing.T, c *route.Compiled, o *order.Ordering, seq cps.Sequence, filter bool) []hsd.StageResult {
	t.Helper()
	a := hsd.NewAnalyzer(c)
	var out []hsd.StageResult
	for s := 0; s < seq.NumStages(); s++ {
		var pairs [][2]int
		if filter {
			pairs = served(c, o, seq.Stage(s))
		} else {
			for _, p := range seq.Stage(s) {
				pairs = append(pairs, [2]int{o.HostOf[p.Src], o.HostOf[p.Dst]})
			}
		}
		sr, err := a.Stage(pairs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sr)
	}
	return out
}
