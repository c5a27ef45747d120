package mpi

import (
	"fmt"
	"sort"

	"fattree/internal/cps"
	"fattree/internal/topo"
)

// This file encodes the paper's Table 1: the survey of MVAPICH and
// OpenMPI collective algorithms and the collective permutation sequence
// each one plays. The headline of Section III is that 18 algorithms
// across the two MPI libraries use only 8 distinct CPS, and those reduce
// to two families (unidirectional shifts and bidirectional XOR
// exchanges).

// Library identifies an MPI implementation in the survey.
type Library string

// The surveyed implementations.
const (
	MVAPICH Library = "mvapich"
	OpenMPI Library = "openmpi"
)

// SizeClass splits algorithm selection by message size, as both
// libraries do.
type SizeClass string

// Message size classes.
const (
	SmallMessages SizeClass = "small"
	LargeMessages SizeClass = "large"
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

// Unidirectional reports the Table 2 classification of the CPS kind.
func (k CPSKind) Unidirectional() bool {
	switch k {
	case CPSRecursiveDoubling, CPSRecursiveHalving, CPSTopoAware:
		return false
	}
	return true
}

// AlgorithmUse is one cell of Table 1: an MPI collective algorithm and
// the CPS it exercises.
type AlgorithmUse struct {
	Collective string
	Algorithm  string
	CPS        CPSKind
	Library    Library
	Sizes      SizeClass
	// Pow2Only marks algorithms the library only selects for
	// power-of-two communicator sizes (the table's '2' annotation).
	Pow2Only bool
}

// Catalog reconstructs Table 1's survey of the two libraries' tuned
// collective layers.
var Catalog = []AlgorithmUse{
	{"allgather", "ring", CPSRing, MVAPICH, LargeMessages, false},
	{"allgather", "ring", CPSRing, OpenMPI, LargeMessages, false},
	{"allgather", "recursive-doubling", CPSRecursiveDoubling, MVAPICH, SmallMessages, true},
	{"allgather", "recursive-doubling", CPSRecursiveDoubling, OpenMPI, SmallMessages, true},
	{"allgather", "bruck", CPSDissemination, MVAPICH, SmallMessages, false},
	{"allgather", "bruck", CPSDissemination, OpenMPI, SmallMessages, false},
	{"allgatherv", "ring", CPSRing, OpenMPI, LargeMessages, false},
	{"allreduce", "recursive-doubling", CPSRecursiveDoubling, MVAPICH, SmallMessages, false},
	{"allreduce", "recursive-doubling", CPSRecursiveDoubling, OpenMPI, SmallMessages, false},
	{"allreduce", "reduce-scatter-allgather", CPSRecursiveHalving, MVAPICH, LargeMessages, true},
	{"allreduce", "ring", CPSRing, OpenMPI, LargeMessages, false},
	{"alltoall", "pairwise-exchange", CPSShift, MVAPICH, LargeMessages, false},
	{"alltoall", "pairwise-exchange", CPSShift, OpenMPI, LargeMessages, false},
	{"alltoall", "bruck", CPSDissemination, MVAPICH, SmallMessages, false},
	{"barrier", "dissemination", CPSDissemination, MVAPICH, SmallMessages, false},
	{"barrier", "recursive-doubling", CPSRecursiveDoubling, OpenMPI, SmallMessages, false},
	{"barrier", "tournament", CPSTournament, OpenMPI, SmallMessages, false},
	{"broadcast", "binomial", CPSBinomial, MVAPICH, SmallMessages, false},
	{"broadcast", "binomial", CPSBinomial, OpenMPI, SmallMessages, false},
	{"broadcast", "scatter-ring-allgather", CPSRing, MVAPICH, LargeMessages, false},
	{"gather", "binomial", CPSBinomial, OpenMPI, SmallMessages, false},
	{"reduce", "binomial", CPSBinomial, MVAPICH, SmallMessages, false},
	{"reduce", "binomial", CPSBinomial, OpenMPI, SmallMessages, false},
	{"reduce", "reduce-scatter-gather", CPSRecursiveHalving, MVAPICH, LargeMessages, true},
	{"reduce-scatter", "recursive-halving", CPSRecursiveHalving, MVAPICH, SmallMessages, true},
	{"reduce-scatter", "recursive-halving", CPSRecursiveHalving, OpenMPI, SmallMessages, true},
	{"reduce-scatter", "pairwise-exchange", CPSShift, MVAPICH, LargeMessages, false},
	{"reduce-scatter", "ring", CPSRing, OpenMPI, LargeMessages, false},
	{"scatter", "binomial", CPSBinomial, MVAPICH, SmallMessages, false},
}

// CPSKinds returns the distinct sequences the catalogue uses — the
// paper's point that the whole zoo reduces to 8.
func CPSKinds() []CPSKind {
	seen := make(map[CPSKind]bool)
	for _, u := range Catalog {
		seen[u.CPS] = true
	}
	out := make([]CPSKind, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UsesOf returns the catalogue rows for a collective.
func UsesOf(collective string) []AlgorithmUse {
	var out []AlgorithmUse
	for _, u := range Catalog {
		if u.Collective == collective {
			out = append(out, u)
		}
	}
	return out
}

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
