package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Segment-level execution of the large-message collective algorithms.
// Where datasim_test.go moves whole vectors, these functions move the vector
// *pieces* the real algorithms move — each rank owns segment slices, and
// every stage transfers specific segments, exactly like MVAPICH's and
// OpenMPI's large-message paths. They validate that the Table 1
// algorithms' data movement matches their permutation sequences.

// RingAllGather executes the ring allgather: rank r starts holding
// segment r; in stage s it sends segment (r-s mod n) to rank r+1 and
// receives segment (r-1-s mod n) from rank r-1. After n-1 stages every
// rank holds every segment. The returned matrix is out[rank][segment].
func RingAllGather(contrib [][]float64) ([][][]float64, error) {
	n := len(contrib)
	if n == 0 {
		return nil, fmt.Errorf("mpi: no ranks")
	}
	// state[rank][segment] = the segment's data or nil.
	state := make([][][]float64, n)
	for r := 0; r < n; r++ {
		state[r] = make([][]float64, n)
		state[r][r] = append([]float64(nil), contrib[r]...)
	}
	for s := 0; s < n-1; s++ {
		type move struct {
			dst, seg int
			data     []float64
		}
		var moves []move
		for r := 0; r < n; r++ {
			seg := ((r-s)%n + n) % n
			if state[r][seg] == nil {
				return nil, fmt.Errorf("mpi: ring stage %d: rank %d missing segment %d to forward", s, r, seg)
			}
			moves = append(moves, move{dst: (r + 1) % n, seg: seg, data: state[r][seg]})
		}
		for _, m := range moves {
			if state[m.dst][m.seg] != nil && s < n-2 {
				return nil, fmt.Errorf("mpi: ring: duplicate delivery of segment %d to rank %d", m.seg, m.dst)
			}
			state[m.dst][m.seg] = m.data
		}
	}
	for r := 0; r < n; r++ {
		for seg := 0; seg < n; seg++ {
			if state[r][seg] == nil {
				return nil, fmt.Errorf("mpi: ring allgather incomplete: rank %d misses segment %d", r, seg)
			}
		}
	}
	return state, nil
}

// HalvingDoublingAllReduce executes the large-message allreduce: a
// recursive-halving reduce-scatter (each stage exchanges half of the
// remaining range with the XOR partner and reduces it) followed by a
// recursive-doubling allgather of the reduced pieces. Power-of-two rank
// counts only, like the libraries' fast path. contrib is
// contrib[rank][element]; the element count must be divisible by n.
// Returns the fully reduced vector per rank.
func HalvingDoublingAllReduce(contrib [][]float64) ([][]float64, error) {
	n := len(contrib)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("mpi: halving-doubling wants a power-of-two rank count, got %d", n)
	}
	width := len(contrib[0])
	if width%n != 0 {
		return nil, fmt.Errorf("mpi: vector width %d not divisible by %d ranks", width, n)
	}
	buf := make([][]float64, n)
	for r := range buf {
		if len(contrib[r]) != width {
			return nil, fmt.Errorf("mpi: ragged contribution at rank %d", r)
		}
		buf[r] = append([]float64(nil), contrib[r]...)
	}
	// Reduce-scatter: after stage s, rank r is responsible for a range
	// of width/2^(s+1) elements; ranges follow the binary structure.
	log := 0
	for 1<<log < n {
		log++
	}
	lo := make([]int, n)
	hi := make([]int, n)
	for r := range lo {
		lo[r], hi[r] = 0, width
	}
	for s := log - 1; s >= 0; s-- {
		d := 1 << s
		// Snapshot the halves being sent.
		sendLo := make([]int, n)
		sendHi := make([]int, n)
		data := make([][]float64, n)
		for r := 0; r < n; r++ {
			mid := (lo[r] + hi[r]) / 2
			if r&d == 0 {
				// Keep the lower half, send the upper.
				sendLo[r], sendHi[r] = mid, hi[r]
			} else {
				sendLo[r], sendHi[r] = lo[r], mid
			}
			data[r] = append([]float64(nil), buf[r][sendLo[r]:sendHi[r]]...)
		}
		for r := 0; r < n; r++ {
			p := r ^ d
			// Receive the partner's sent half (which is the half r
			// keeps) and reduce.
			for i, v := range data[p] {
				buf[r][sendLo[p]+i] += v
			}
			if r&d == 0 {
				hi[r] = (lo[r] + hi[r]) / 2
			} else {
				lo[r] = (lo[r] + hi[r]) / 2
			}
		}
	}
	// Allgather the reduced ranges back: mirror the halving.
	for s := 0; s < log; s++ {
		d := 1 << s
		data := make([][]float64, n)
		plo := append([]int(nil), lo...)
		phi := append([]int(nil), hi...)
		for r := 0; r < n; r++ {
			data[r] = append([]float64(nil), buf[r][plo[r]:phi[r]]...)
		}
		for r := 0; r < n; r++ {
			p := r ^ d
			copy(buf[r][plo[p]:plo[p]+len(data[p])], data[p])
			if plo[p] < lo[r] {
				lo[r] = plo[p]
			}
			if phi[p] > hi[r] {
				hi[r] = phi[p]
			}
		}
	}
	for r := 0; r < n; r++ {
		if lo[r] != 0 || hi[r] != width {
			return nil, fmt.Errorf("mpi: rank %d covers [%d,%d) of %d after allgather", r, lo[r], hi[r], width)
		}
	}
	return buf, nil
}

func TestRingAllGather(t *testing.T) {
	for _, n := range []int{2, 3, 8, 18, 32} {
		contrib := make([][]float64, n)
		for r := range contrib {
			contrib[r] = []float64{float64(r), float64(r * r)}
		}
		out, err := RingAllGather(contrib)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r := 0; r < n; r++ {
			for seg := 0; seg < n; seg++ {
				if out[r][seg][0] != float64(seg) || out[r][seg][1] != float64(seg*seg) {
					t.Fatalf("n=%d: rank %d segment %d = %v", n, r, seg, out[r][seg])
				}
			}
		}
	}
}

func TestRingAllGatherEmpty(t *testing.T) {
	if _, err := RingAllGather(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestHalvingDoublingAllReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{2, 4, 8, 16, 32} {
		width := n * 3
		contrib := make([][]float64, n)
		want := make([]float64, width)
		for r := range contrib {
			contrib[r] = make([]float64, width)
			for j := range contrib[r] {
				contrib[r][j] = float64(rng.Intn(100)) / 4
				want[j] += contrib[r][j]
			}
		}
		out, err := HalvingDoublingAllReduce(contrib)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r := 0; r < n; r++ {
			for j := 0; j < width; j++ {
				if math.Abs(out[r][j]-want[j]) > 1e-9 {
					t.Fatalf("n=%d rank %d elem %d = %v, want %v", n, r, j, out[r][j], want[j])
				}
			}
		}
	}
}

func TestHalvingDoublingValidation(t *testing.T) {
	if _, err := HalvingDoublingAllReduce(nil); err == nil {
		t.Error("empty accepted")
	}
	bad := make([][]float64, 3) // not a power of two
	for i := range bad {
		bad[i] = make([]float64, 6)
	}
	if _, err := HalvingDoublingAllReduce(bad); err == nil {
		t.Error("non-pow2 accepted")
	}
	odd := make([][]float64, 4)
	for i := range odd {
		odd[i] = make([]float64, 5) // 5 not divisible by 4
	}
	if _, err := HalvingDoublingAllReduce(odd); err == nil {
		t.Error("indivisible width accepted")
	}
	ragged := make([][]float64, 4)
	for i := range ragged {
		ragged[i] = make([]float64, 8)
	}
	ragged[2] = make([]float64, 4)
	if _, err := HalvingDoublingAllReduce(ragged); err == nil {
		t.Error("ragged accepted")
	}
}
