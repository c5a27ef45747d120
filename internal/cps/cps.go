// Package cps implements the Collective Permutation Sequences of Section
// III of the paper: the communication-pattern half of the decomposition of
// MPI collective algorithms into a permutation sequence plus message
// content.
//
// A sequence is an ordered list of stages; each stage is a set of
// (source rank, destination rank) flows that are active simultaneously.
// Bidirectional sequences include both directions of every exchange as
// explicit flows. The paper's Table 2 defines eight sequences; all of them
// obey the constant-displacement principle — within a stage the modular
// distance between source and destination is the same for every pair —
// and every unidirectional stage is a sub-permutation of some stage of the
// Shift sequence, which makes Shift the canonical worst case.
package cps

import "fmt"

// Pair is one flow: rank Src sends to rank Dst during a stage.
type Pair struct {
	Src, Dst int32
}

// Stage is the set of flows active in one step of a collective.
type Stage []Pair

// Sequence is a collective permutation sequence over ranks 0..Size()-1.
type Sequence interface {
	// Name identifies the CPS (matches the paper's Table 2 rows).
	Name() string
	// Size is the job size N.
	Size() int
	// NumStages is the number of communication stages.
	NumStages() int
	// Stage materializes stage s (0-based). Implementations compute it
	// on demand; callers own the returned slice.
	Stage(s int) Stage
	// Bidirectional reports whether every exchange implies the reverse
	// exchange in the same stage (Table 2's two CPS types).
	Bidirectional() bool
}

// Rotating is implemented by sequences whose stages may be rotations, the
// form Table 2 gives Shift, Ring and Dissemination: a reader that knows a
// stage's displacement can count it without materializing it.
type Rotating interface {
	// Rotation returns d in [1, N) when Stage(s) is exactly the pairs
	// (i, (i+d) mod N) for i = 0..N-1 in rank order, and 0 otherwise.
	Rotation(s int) int
}

// Exchanging is implemented by sequences whose stages may be XOR
// exchanges, the form Table 2 gives Recursive-Doubling and
// Recursive-Halving: a reader that knows a stage's distance and span can
// count it without materializing it.
type Exchanging interface {
	// Exchange returns m > 0 and span only when Stage(s) is exactly the
	// pairs (i, i^m) for i = 0..span-1 in rank order; m = 0 declares
	// nothing, and the stage is read from its pair list.
	Exchange(s int) (m, span int)
}

// Validate checks structural sanity of an entire sequence: ranks in
// range, no self-flows, no duplicate flows within a stage, and no rank
// sending or receiving twice in one stage (permutation property).
func Validate(s Sequence) error {
	n := s.Size()
	for st := 0; st < s.NumStages(); st++ {
		stage := s.Stage(st)
		srcSeen := make(map[int32]bool, len(stage))
		dstSeen := make(map[int32]bool, len(stage))
		for _, p := range stage {
			if p.Src < 0 || int(p.Src) >= n || p.Dst < 0 || int(p.Dst) >= n {
				return fmt.Errorf("cps: %s stage %d: flow %d->%d out of range [0,%d)", s.Name(), st, p.Src, p.Dst, n)
			}
			if p.Src == p.Dst {
				return fmt.Errorf("cps: %s stage %d: self flow at rank %d", s.Name(), st, p.Src)
			}
			if srcSeen[p.Src] {
				return fmt.Errorf("cps: %s stage %d: rank %d sends twice", s.Name(), st, p.Src)
			}
			if dstSeen[p.Dst] {
				return fmt.Errorf("cps: %s stage %d: rank %d receives twice", s.Name(), st, p.Dst)
			}
			srcSeen[p.Src] = true
			dstSeen[p.Dst] = true
		}
	}
	return nil
}

// log2Ceil returns ceil(log2(n)) for n >= 1.
func log2Ceil(n int) int {
	s := 0
	for 1<<s < n {
		s++
	}
	return s
}

// log2Floor returns floor(log2(n)) for n >= 1.
func log2Floor(n int) int {
	s := 0
	for 1<<(s+1) <= n {
		s++
	}
	return s
}

func checkSize(name string, n int) {
	if n < 1 {
		panic(fmt.Sprintf("cps: %s wants a positive job size, got %d", name, n))
	}
}
