package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fattree/internal/cps"
)

// This file executes collective algorithms at the data level: each rank
// holds a vector, stages move and reduce real values following the
// permutation sequence, and the result is checked against the
// mathematical definition. The CPS abstraction proves the *pattern* is
// contention free; this layer proves the pattern actually computes the
// collective — the other half of the paper's decomposition (Section
// III: "the second part defines the content of the communication").

// AllReduceSum executes a sum-allreduce over the given bidirectional
// exchange schedule (flat or topology-aware recursive doubling): every
// exchange sends the sender's full accumulated vector, receivers add
// element-wise contributions they have not folded in yet. Returns the
// per-rank result vectors.
//
// To keep double counting impossible with arbitrary schedules, each rank
// tracks the set of contributions its accumulator contains; a transfer
// merges the sender's *set* and adds exactly the missing elements. This
// mirrors how segmented implementations tag data, and catches schedules
// that deliver a contribution twice without the tag.
func AllReduceSum(seq cps.Sequence, contrib [][]float64) ([][]float64, error) {
	n := seq.Size()
	if len(contrib) != n {
		return nil, fmt.Errorf("mpi: %d contributions for %d ranks", len(contrib), n)
	}
	width := len(contrib[0])
	for r, v := range contrib {
		if len(v) != width {
			return nil, fmt.Errorf("mpi: rank %d vector width %d != %d", r, len(v), width)
		}
	}
	// acc[r] = current accumulated vector; have[r][k] marks rank k's
	// contribution as folded in.
	acc := make([][]float64, n)
	have := make([][]bool, n)
	for r := 0; r < n; r++ {
		acc[r] = append([]float64(nil), contrib[r]...)
		have[r] = make([]bool, n)
		have[r][r] = true
	}
	for s := 0; s < seq.NumStages(); s++ {
		stage := seq.Stage(s)
		// Simultaneous semantics: snapshot senders before applying.
		type delta struct {
			dst int32
			set []bool
			acc []float64
		}
		snaps := make([]delta, 0, len(stage))
		for _, p := range stage {
			snaps = append(snaps, delta{
				dst: p.Dst,
				set: append([]bool(nil), have[p.Src]...),
				acc: append([]float64(nil), acc[p.Src]...),
			})
		}
		for _, d := range snaps {
			missing, shared, subset := false, false, true
			for k := 0; k < n; k++ {
				senderHas, recvHas := d.set[k], have[d.dst][k]
				if senderHas && !recvHas {
					missing = true
				}
				if senderHas && recvHas {
					shared = true
				}
				if recvHas && !senderHas {
					subset = false
				}
			}
			switch {
			case !missing:
				// Fully redundant transfer; nothing to add.
			case !shared:
				// Disjoint sets (the XOR and pre-stage case): add the
				// sender's accumulator element-wise.
				for i := 0; i < width; i++ {
					acc[d.dst][i] += d.acc[i]
				}
				for k := 0; k < n; k++ {
					have[d.dst][k] = have[d.dst][k] || d.set[k]
				}
			case subset:
				// Receiver's set is contained in the sender's (the
				// post-stage and fixup case): replace wholesale.
				copy(acc[d.dst], d.acc)
				copy(have[d.dst], d.set)
			default:
				// Partial overlap would double-count; real segmented
				// implementations never generate it, and neither do
				// our schedules.
				return nil, fmt.Errorf("mpi: stage %d: transfer to rank %d has partial overlap; schedule not sum-safe", s, d.dst)
			}
		}
	}
	for r := 0; r < n; r++ {
		for k := 0; k < n; k++ {
			if !have[r][k] {
				return nil, fmt.Errorf("mpi: rank %d missing contribution of rank %d", r, k)
			}
		}
	}
	return acc, nil
}

// BroadcastData executes a one-to-all schedule: rank root's vector must
// reach every rank unchanged.
func BroadcastData(seq cps.Sequence, root int, vec []float64) ([][]float64, error) {
	n := seq.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: root %d out of range", root)
	}
	out := make([][]float64, n)
	out[root] = append([]float64(nil), vec...)
	for s := 0; s < seq.NumStages(); s++ {
		stage := seq.Stage(s)
		type mv struct {
			dst  int32
			vals []float64
		}
		var moves []mv
		for _, p := range stage {
			if out[p.Src] != nil && out[p.Dst] == nil {
				moves = append(moves, mv{p.Dst, append([]float64(nil), out[p.Src]...)})
			}
		}
		for _, m := range moves {
			out[m.dst] = m.vals
		}
	}
	for r := 0; r < n; r++ {
		if out[r] == nil {
			return nil, fmt.Errorf("mpi: rank %d never received the broadcast", r)
		}
	}
	return out, nil
}

func randomContrib(n, width int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, width)
		for j := range out[i] {
			out[i][j] = float64(r.Intn(1000)) / 8 // exact in float64
		}
	}
	return out
}

func expectedSum(contrib [][]float64) []float64 {
	sum := make([]float64, len(contrib[0]))
	for _, v := range contrib {
		for j, x := range v {
			sum[j] += x
		}
	}
	return sum
}

func checkAllReduce(t *testing.T, seq cps.Sequence, n int) {
	t.Helper()
	contrib := randomContrib(n, 4, int64(n))
	got, err := AllReduceSum(seq, contrib)
	if err != nil {
		t.Fatalf("%s n=%d: %v", seq.Name(), n, err)
	}
	want := expectedSum(contrib)
	for r := 0; r < n; r++ {
		for j := range want {
			if math.Abs(got[r][j]-want[j]) > 1e-9 {
				t.Fatalf("%s n=%d: rank %d element %d = %v, want %v", seq.Name(), n, r, j, got[r][j], want[j])
			}
		}
	}
}

func TestAllReduceSumRecursiveDoubling(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		checkAllReduce(t, cps.RecursiveDoubling(n), n)
	}
}

func TestAllReduceSumRecursiveDoublingNonPow2(t *testing.T) {
	// The pre/post proxy stages must keep the sum exact.
	for _, n := range []int{3, 5, 6, 7, 12, 18, 24, 100} {
		checkAllReduce(t, cps.RecursiveDoubling(n), n)
	}
}

func TestAllReduceSumTopoAware(t *testing.T) {
	// The Section VI schedule computes the same sums — including its
	// pre/post stages on non-power-of-two levels.
	for _, shape := range [][]int{{4, 4}, {6, 6}, {18, 18}, {4, 4, 4}, {6, 6, 4}} {
		seq, err := cps.TopoAwareRecursiveDoubling(shape)
		if err != nil {
			t.Fatal(err)
		}
		checkAllReduce(t, seq, seq.Size())
	}
}

func TestAllReduceSumTopoAwarePartial(t *testing.T) {
	// Fixup stages must not double-count.
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		perm := r.Perm(64)
		active := perm[r.Intn(20):]
		seq, err := cps.TopoAwareRecursiveDoublingPartial([]int{4, 4, 4}, active)
		if err != nil {
			t.Fatal(err)
		}
		checkAllReduce(t, seq, seq.Size())
	}
}

func TestAllReduceSumInputValidation(t *testing.T) {
	seq := cps.RecursiveDoubling(4)
	if _, err := AllReduceSum(seq, randomContrib(3, 4, 1)); err == nil {
		t.Error("rank-count mismatch accepted")
	}
	bad := randomContrib(4, 4, 1)
	bad[2] = bad[2][:2]
	if _, err := AllReduceSum(seq, bad); err == nil {
		t.Error("ragged vectors accepted")
	}
}

func TestAllReduceSumDetectsIncompleteSchedule(t *testing.T) {
	// A schedule that stops early leaves ranks without contributions.
	full := cps.RecursiveDoubling(8)
	truncated, err := SampleStages(full, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AllReduceSum(truncated, randomContrib(8, 2, 2)); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestBroadcastDataBinomial(t *testing.T) {
	for _, n := range []int{2, 5, 16, 31, 64} {
		seq := cps.Binomial(n)
		vec := []float64{3.5, -1, 42}
		out, err := BroadcastData(seq, 0, vec)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r := 0; r < n; r++ {
			for j := range vec {
				if out[r][j] != vec[j] {
					t.Fatalf("n=%d rank %d got %v", n, r, out[r])
				}
			}
		}
	}
}

func TestBroadcastDataErrors(t *testing.T) {
	if _, err := BroadcastData(cps.Binomial(8), 9, []float64{1}); err == nil {
		t.Error("bad root accepted")
	}
	// Binomial rooted elsewhere does not reach everyone from rank 3.
	if _, err := BroadcastData(cps.Binomial(8), 3, []float64{1}); err == nil {
		t.Error("wrong-root broadcast accepted")
	}
}
