package cps_test

import (
	"testing"

	"fattree/internal/cps"
	"fattree/internal/mpi"
)

// rotationOf is the oracle a Rotation declaration is held to: d in [1, n)
// when st is exactly the pairs (i, (i+d) mod n) for i = 0..n-1 in rank
// order, and 0 for any other stage, the empty one included.
func rotationOf(st cps.Stage, n int) int {
	if n < 2 || len(st) != n {
		return 0
	}
	d := int(st[0].Dst)
	if st[0].Src != 0 || d < 1 || d >= n {
		return 0
	}
	for i, p := range st {
		if int(p.Src) != i || int(p.Dst) != (i+d)%n {
			return 0
		}
	}
	return d
}

// declared is seq's Rotation(s), or 0 when seq declares no rotations.
func declared(seq cps.Sequence, s int) int {
	if r, ok := seq.(cps.Rotating); ok {
		return r.Rotation(s)
	}
	return 0
}

// TestRotationDeclarations holds every declaration to the stage it
// describes, pair for pair in rank order: Shift, Ring and Dissemination
// declare each stage's displacement and 0 for an empty stage; the
// sequences whose stages are not rotations of the whole job do not
// implement Rotating at all. The HSD replay counts a declared stage
// without building it, so a wrong declaration would count the wrong
// flows.
func TestRotationDeclarations(t *testing.T) {
	var sizes []int
	for n := 1; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 324, 1944)
	for _, n := range sizes {
		rotating := []cps.Sequence{cps.Shift(n), cps.Ring(n), cps.RingAllgather(n), cps.Dissemination(n)}
		for _, seq := range rotating {
			if _, ok := seq.(cps.Rotating); !ok {
				t.Fatalf("%s n=%d does not declare its rotations", seq.Name(), n)
			}
			for s := 0; s < seq.NumStages(); s++ {
				got, want := declared(seq, s), rotationOf(seq.Stage(s), n)
				if got != want {
					t.Fatalf("%s n=%d stage %d: declares %d, the stage is rotation %d", seq.Name(), n, s, got, want)
				}
				if n > 1 && want == 0 {
					t.Fatalf("%s n=%d stage %d is not a rotation", seq.Name(), n, s)
				}
			}
		}
		if got := declared(cps.Ring(n), 0); n == 1 && got != 0 {
			t.Fatalf("ring n=1: its empty stage declares %d, want 0", got)
		}
	}

	// Binomial and Tournament stages are partial; an RD stage at a size
	// that is not a power of two rotates a prefix of the ranks at most —
	// at 54 ranks stage 5 pairs i with i^16 below 32, a rotation of 32
	// ranks and not of 54. They stay on the pair path.
	ta, err := cps.TopoAwareRecursiveDoubling([]int{18, 18})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []cps.Sequence{cps.Binomial(54), cps.Tournament(54), cps.RecursiveDoubling(54), cps.RecursiveHalving(54), ta} {
		if _, ok := seq.(cps.Rotating); ok {
			t.Errorf("%s declares rotations", seq.Name())
		}
	}
	rd := cps.RecursiveDoubling(54).Stage(5)
	if len(rd) != 32 || rotationOf(rd, 54) != 0 || rotationOf(rd, 32) != 16 {
		t.Fatalf("RD n=54 stage 5: %d pairs, rotation %d of 54 and %d of its first 32 ranks; want 32, 0 and 16",
			len(rd), rotationOf(rd, 54), rotationOf(rd, 32))
	}
}

// TestSampledRotation: a sampled Shift declares the inner stage's
// displacement, and a sample of a sequence that declares nothing
// declares 0.
func TestSampledRotation(t *testing.T) {
	for _, n := range []int{2, 3, 18, 324} {
		idx := []int{n - 2, 0, (n - 2) / 2}
		shift, err := mpi.SampleStages(cps.Shift(n), idx)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := mpi.SampleStages(cps.RecursiveDoubling(n), []int{0})
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range idx {
			if got := declared(shift, i); got != s+1 || got != rotationOf(shift.Stage(i), n) {
				t.Errorf("sampled shift n=%d stage %d (inner %d): declares %d, the stage is rotation %d", n, i, s, got, rotationOf(shift.Stage(i), n))
			}
		}
		if got := declared(rd, 0); got != 0 {
			t.Errorf("sampled recursive-doubling n=%d: declares %d, want 0", n, got)
		}
	}
}
