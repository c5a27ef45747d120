package mpi

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/topo"
)

// CPSKind names the eight sequences of Table 2.
type CPSKind string

// The eight collective permutation sequences.
const (
	CPSShift             CPSKind = "shift"
	CPSRing              CPSKind = "ring"
	CPSBinomial          CPSKind = "binomial"
	CPSDissemination     CPSKind = "dissemination"
	CPSTournament        CPSKind = "tournament"
	CPSRecursiveDoubling CPSKind = "recursive-doubling"
	CPSRecursiveHalving  CPSKind = "recursive-halving"
	CPSTopoAware         CPSKind = "topo-aware-recursive-doubling"
)

// NewSequence instantiates a CPS kind for a job size. The topo-aware
// kind needs a tree shape; use NewTopoAwareSequence for it.
func NewSequence(kind CPSKind, n int) (cps.Sequence, error) {
	switch kind {
	case CPSShift:
		return cps.Shift(n), nil
	case CPSRing:
		return cps.RingAllgather(n), nil
	case CPSBinomial:
		return cps.Binomial(n), nil
	case CPSDissemination:
		return cps.Dissemination(n), nil
	case CPSTournament:
		return cps.Tournament(n), nil
	case CPSRecursiveDoubling:
		return cps.RecursiveDoubling(n), nil
	case CPSRecursiveHalving:
		return cps.RecursiveHalving(n), nil
	case CPSTopoAware:
		return nil, fmt.Errorf("mpi: %s needs a tree shape; use NewTopoAwareSequence", kind)
	default:
		return nil, fmt.Errorf("mpi: unknown CPS kind %q", kind)
	}
}

// SequenceByName resolves a CPS kind name, or "topo-aware" for short,
// for a job on the active hosts of tree g (nil = fully populated). sample > 0 keeps
// that many evenly spaced stages of a longer sequence (SampleEvenly).
func SequenceByName(name string, g topo.PGFT, active []int, sample int) (cps.Sequence, error) {
	var seq cps.Sequence
	var err error
	if name == "topo-aware" || CPSKind(name) == CPSTopoAware {
		seq, err = NewTopoAwareSequence(g.M, active)
	} else {
		n := g.NumHosts()
		if active != nil {
			n = len(active)
		}
		seq, err = NewSequence(CPSKind(name), n)
	}
	if err != nil {
		return nil, err
	}
	return SampleEvenly(seq, sample)
}

// NewTopoAwareSequence instantiates the Section VI sequence for the
// active hosts of a tree shape (active == nil means fully populated).
func NewTopoAwareSequence(shape []int, active []int) (cps.Sequence, error) {
	if active == nil {
		return cps.TopoAwareRecursiveDoubling(shape)
	}
	return cps.TopoAwareRecursiveDoublingPartial(shape, active)
}
