package mpi

import (
	"sort"
	"testing"

	"fattree/internal/cps"
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

func TestCatalogEncodesTable1(t *testing.T) {
	kinds := CPSKinds()
	// Table 1 uses 7 of the 8 Table 2 CPS directly (the topo-aware one
	// is this paper's contribution, not in the survey).
	if len(kinds) != 7 {
		t.Fatalf("distinct CPS kinds = %d (%v), want 7", len(kinds), kinds)
	}
	// At least 18 algorithm entries across the two libraries.
	if len(Catalog) < 18 {
		t.Errorf("catalogue has %d rows, want >= 18", len(Catalog))
	}
	libs := map[Library]bool{}
	for _, u := range Catalog {
		libs[u.Library] = true
	}
	if !libs[MVAPICH] || !libs[OpenMPI] {
		t.Error("catalogue must cover both MVAPICH and OpenMPI")
	}
}

func TestCatalogInstantiable(t *testing.T) {
	// Every catalogue row must instantiate and validate for pow2 and
	// (where allowed) non-pow2 sizes.
	for _, u := range Catalog {
		sizes := []int{16}
		if !u.Pow2Only {
			sizes = append(sizes, 18)
		}
		for _, n := range sizes {
			seq, err := NewSequence(u.CPS, n)
			if err != nil {
				t.Fatalf("%s/%s: %v", u.Collective, u.Algorithm, err)
			}
			if err := cps.Validate(seq); err != nil {
				t.Errorf("%s/%s n=%d: %v", u.Collective, u.Algorithm, n, err)
			}
		}
	}
}

func TestUsesOf(t *testing.T) {
	uses := UsesOf("allreduce")
	if len(uses) < 3 {
		t.Errorf("allreduce rows = %d, want >= 3", len(uses))
	}
	for _, u := range uses {
		if u.Collective != "allreduce" {
			t.Errorf("stray row %+v", u)
		}
	}
	if got := UsesOf("no-such-collective"); got != nil {
		t.Errorf("unknown collective returned %v", got)
	}
}

func TestUnidirectionalClassification(t *testing.T) {
	uni := []CPSKind{CPSShift, CPSRing, CPSBinomial, CPSDissemination, CPSTournament}
	bi := []CPSKind{CPSRecursiveDoubling, CPSRecursiveHalving, CPSTopoAware}
	for _, k := range uni {
		if !k.Unidirectional() {
			t.Errorf("%s misclassified as bidirectional", k)
		}
	}
	for _, k := range bi {
		if k.Unidirectional() {
			t.Errorf("%s misclassified as unidirectional", k)
		}
	}
}
