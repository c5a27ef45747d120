package cps

// The five unidirectional sequences of Table 2. Every stage of every one
// of them is a sub-permutation of a Shift stage, so the Shift sequence is
// the superset whose contention-freedom (Theorems 1 and 2) carries over.

// ShiftSeq is the Shift CPS: stages s = 1..N-1, each the full permutation
// n_i -> n_{(i+s) mod N}. It is the pattern behind large-message
// all-to-all and pairwise-exchange alltoallv algorithms.
type ShiftSeq struct{ n int }

// Shift returns the Shift CPS for job size n.
func Shift(n int) *ShiftSeq {
	checkSize("shift", n)
	return &ShiftSeq{n}
}

// Name implements Sequence.
func (s *ShiftSeq) Name() string { return "shift" }

// Size implements Sequence.
func (s *ShiftSeq) Size() int { return s.n }

// NumStages implements Sequence.
func (s *ShiftSeq) NumStages() int { return s.n - 1 }

// Bidirectional implements Sequence.
func (s *ShiftSeq) Bidirectional() bool { return false }

// Rotation implements Rotating: stage st is the displacement st+1.
func (s *ShiftSeq) Rotation(st int) int { return (st + 1) % s.n }

// Stage implements Sequence: displacement s+1. The ranks before the
// wrap-around and those after it are two runs, so no pair pays a modulo.
func (s *ShiftSeq) Stage(st int) Stage {
	d := (st + 1) % s.n
	out := make(Stage, s.n)
	for i := 0; i < s.n-d; i++ {
		out[i] = Pair{int32(i), int32(i + d)}
	}
	for i := s.n - d; i < s.n; i++ {
		out[i] = Pair{int32(i), int32(i + d - s.n)}
	}
	return out
}

// RingSeq is the Ring CPS: a single stage n_i -> n_{(i+1) mod N},
// repeated by ring allgather/allreduce algorithms N-1 times with the same
// neighbours. We expose the repeats so per-stage analyses weight it like
// the running algorithm does.
type RingSeq struct {
	n       int
	repeats int
}

// Ring returns the Ring CPS for job size n (a single stage).
func Ring(n int) *RingSeq {
	checkSize("ring", n)
	return &RingSeq{n, 1}
}

// RingAllgather returns the Ring CPS repeated n-1 times, the full
// allgather schedule.
func RingAllgather(n int) *RingSeq {
	checkSize("ring", n)
	return &RingSeq{n, n - 1}
}

// Name implements Sequence.
func (s *RingSeq) Name() string { return "ring" }

// Size implements Sequence.
func (s *RingSeq) Size() int { return s.n }

// NumStages implements Sequence.
func (s *RingSeq) NumStages() int { return s.repeats }

// Bidirectional implements Sequence.
func (s *RingSeq) Bidirectional() bool { return false }

// Rotation implements Rotating: every stage is the displacement 1, but
// for one rank, whose stages are empty.
func (s *RingSeq) Rotation(int) int { return 1 % s.n }

// Stage implements Sequence: every stage is the displacement-1 shift.
func (s *RingSeq) Stage(int) Stage {
	out := make(Stage, 0, s.n)
	for i := 0; i < s.n; i++ {
		if s.n == 1 {
			break
		}
		out = append(out, Pair{int32(i), int32((i + 1) % s.n)})
	}
	return out
}

// BinomialSeq is the Binomial CPS: stage s has n_i -> n_{i+2^s} for
// 0 <= i < 2^s with i+2^s < N, the broadcast direction.
type BinomialSeq struct{ n int }

// Binomial returns the broadcast-direction Binomial CPS.
func Binomial(n int) *BinomialSeq {
	checkSize("binomial", n)
	return &BinomialSeq{n}
}

// Name implements Sequence.
func (s *BinomialSeq) Name() string { return "binomial" }

// Size implements Sequence.
func (s *BinomialSeq) Size() int { return s.n }

// NumStages implements Sequence.
func (s *BinomialSeq) NumStages() int { return log2Ceil(s.n) }

// Bidirectional implements Sequence.
func (s *BinomialSeq) Bidirectional() bool { return false }

// Stage implements Sequence.
func (s *BinomialSeq) Stage(st int) Stage {
	d := 1 << st
	var out Stage
	for i := 0; i < d && i+d < s.n; i++ {
		out = append(out, Pair{int32(i), int32(i + d)})
	}
	return out
}

// DisseminationSeq is the Dissemination CPS: stage s has
// n_i -> n_{(i+2^s) mod N} for all i — the pattern of the dissemination
// barrier and Bruck allgather.
type DisseminationSeq struct{ n int }

// Dissemination returns the Dissemination CPS for job size n.
func Dissemination(n int) *DisseminationSeq {
	checkSize("dissemination", n)
	return &DisseminationSeq{n}
}

// Name implements Sequence.
func (s *DisseminationSeq) Name() string { return "dissemination" }

// Size implements Sequence.
func (s *DisseminationSeq) Size() int { return s.n }

// NumStages implements Sequence.
func (s *DisseminationSeq) NumStages() int { return log2Ceil(s.n) }

// Bidirectional implements Sequence.
func (s *DisseminationSeq) Bidirectional() bool { return false }

// Rotation implements Rotating: stage st is the displacement 2^st.
func (s *DisseminationSeq) Rotation(st int) int { return (1 << st) % s.n }

// Stage implements Sequence.
func (s *DisseminationSeq) Stage(st int) Stage {
	d := (1 << st) % s.n
	out := make(Stage, 0, s.n)
	for i := 0; i < s.n; i++ {
		if d == 0 {
			break
		}
		out = append(out, Pair{int32(i), int32((i + d) % s.n)})
	}
	return out
}

// TournamentSeq is the Tournament CPS: stage s has n_{i+2^s} -> n_i for
// every i that is a multiple of 2^{s+1} (losers report to winners).
type TournamentSeq struct{ n int }

// Tournament returns the Tournament CPS for job size n.
func Tournament(n int) *TournamentSeq {
	checkSize("tournament", n)
	return &TournamentSeq{n}
}

// Name implements Sequence.
func (s *TournamentSeq) Name() string { return "tournament" }

// Size implements Sequence.
func (s *TournamentSeq) Size() int { return s.n }

// NumStages implements Sequence.
func (s *TournamentSeq) NumStages() int { return log2Ceil(s.n) }

// Bidirectional implements Sequence.
func (s *TournamentSeq) Bidirectional() bool { return false }

// Stage implements Sequence.
func (s *TournamentSeq) Stage(st int) Stage {
	d := 1 << st
	var out Stage
	for i := 0; i+d < s.n; i += 2 * d {
		out = append(out, Pair{int32(i + d), int32(i)})
	}
	return out
}
