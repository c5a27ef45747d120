package cps_test

import (
	"testing"

	"fattree/internal/cps"
	"fattree/internal/mpi"
)

// exchanged is seq's Exchange(s), or (0, 0) when seq declares no
// exchanges.
func exchanged(seq cps.Sequence, s int) (m, span int) {
	if x, ok := seq.(cps.Exchanging); ok {
		return x.Exchange(s)
	}
	return 0, 0
}

// isExchange reports whether st is exactly the pairs (i, i^m) for
// i = 0..span-1 in rank order, the oracle an Exchange declaration is held
// to.
func isExchange(st cps.Stage, m, span int) bool {
	if m < 1 || len(st) != span {
		return false
	}
	for i, p := range st {
		if int(p.Src) != i || int(p.Dst) != i^m {
			return false
		}
	}
	return true
}

// TestExchangeDeclarations holds every declaration to the stage it
// describes, pair for pair in rank order: Recursive-Doubling and
// Recursive-Halving declare each XOR stage's distance over the largest
// power of two of ranks, and nothing for the pre and post stages of a
// job with proxies; the other sequences do not implement Exchanging at
// all. The HSD replay counts a declared stage without building it, so a
// wrong declaration would count the wrong flows.
func TestExchangeDeclarations(t *testing.T) {
	var sizes []int
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 324, 1944)
	ta, err := cps.TopoAwareRecursiveDoubling([]int{18, 18})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := any(ta).(cps.Exchanging); ok {
		t.Fatalf("%s declares exchanges", ta.Name())
	}
	for _, n := range sizes {
		pow := 1
		for pow*2 <= n {
			pow *= 2
		}
		for _, seq := range []cps.Sequence{cps.RecursiveDoubling(n), cps.RecursiveHalving(n)} {
			if _, ok := seq.(cps.Exchanging); !ok {
				t.Fatalf("%s n=%d does not declare its exchanges", seq.Name(), n)
			}
			last := seq.NumStages() - 1
			for s := 0; s <= last; s++ {
				st := seq.Stage(s)
				m, span := exchanged(seq, s)
				if proxy := n != pow && (s == 0 || s == last); proxy {
					if m != 0 {
						t.Fatalf("%s n=%d proxy stage %d declares exchange %d over %d ranks", seq.Name(), n, s, m, span)
					}
					continue
				}
				if span != pow || !isExchange(st, m, span) {
					t.Fatalf("%s n=%d stage %d: declares exchange %d over %d ranks, the stage's %d pairs begin %v",
						seq.Name(), n, s, m, span, len(st), st[:min(len(st), 4)])
				}
			}
		}
		for _, seq := range []cps.Sequence{cps.Shift(n), cps.Ring(n), cps.RingAllgather(n), cps.Binomial(n),
			cps.Dissemination(n), cps.Tournament(n)} {
			if _, ok := seq.(cps.Exchanging); ok {
				t.Fatalf("%s n=%d declares exchanges", seq.Name(), n)
			}
		}
	}
}

// TestSampledExchange: a sampled Recursive-Doubling or -Halving declares
// the inner stage's exchange, a sampled proxy stage nothing, and a sample
// of a sequence that declares nothing declares nothing.
func TestSampledExchange(t *testing.T) {
	for _, n := range []int{2, 3, 18, 324} {
		for _, inner := range []cps.Sequence{cps.RecursiveDoubling(n), cps.RecursiveHalving(n)} {
			idx := []int{inner.NumStages() - 1, 0, inner.NumStages() / 2}
			sampled, err := mpi.SampleStages(inner, idx)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range idx {
				m, span := exchanged(sampled, i)
				wm, wspan := exchanged(inner, s)
				if m != wm || span != wspan || m > 0 && !isExchange(sampled.Stage(i), m, span) {
					t.Errorf("sampled %s n=%d stage %d (inner %d): declares (%d, %d), the inner stage (%d, %d)",
						inner.Name(), n, i, s, m, span, wm, wspan)
				}
			}
		}
		shift, err := mpi.SampleStages(cps.Shift(n), []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := exchanged(shift, 0); m != 0 {
			t.Errorf("sampled shift n=%d: declares exchange %d, want 0", n, m)
		}
	}
}
