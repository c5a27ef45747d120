package cps

// Oracles over whole sequences and single stages: the Table 2
// displacement and Shift-superset properties, and the information-flow
// checks that a sequence completes its collective. Only tests read them.

// Displacement returns the common (dst-src) mod n displacement of the
// stage and true, or 0 and false if the stage mixes displacements.
// Bidirectional stages mix d and n-d by construction; for those, callers
// should test each direction separately via SplitDirections.
func Displacement(st Stage, n int) (int, bool) {
	if len(st) == 0 {
		return 0, true
	}
	want := int((st[0].Dst - st[0].Src + int32(n))) % n
	for _, p := range st[1:] {
		d := int((p.Dst-p.Src)+int32(n)) % n
		if d != want {
			return 0, false
		}
	}
	return want, true
}

// SplitDirections partitions a stage into the flows with displacement in
// (0, n/2] ("forward") and the rest ("backward"). For a bidirectional
// stage built from XOR exchanges the two halves are mirror images.
func SplitDirections(st Stage, n int) (fwd, bwd Stage) {
	for _, p := range st {
		d := int((p.Dst-p.Src)+int32(n)) % n
		if d != 0 && d*2 <= n {
			fwd = append(fwd, p)
		} else {
			bwd = append(bwd, p)
		}
	}
	return fwd, bwd
}

// IsSubPermutationOfShift reports whether every flow of the stage appears
// in the Shift stage with the same displacement (Section III's key
// observation: Shift is a superset of all unidirectional CPS).
func IsSubPermutationOfShift(st Stage, n int) bool {
	if len(st) == 0 {
		return true
	}
	d, ok := Displacement(st, n)
	if !ok {
		return false
	}
	for _, p := range st {
		if int(p.Dst) != (int(p.Src)+d)%n {
			return false
		}
	}
	return true
}

// CoversAllReduce simulates information flow through the sequence: every
// rank starts knowing only its own contribution; a flow src->dst merges
// src's knowledge into dst *as of the start of the stage* (exchanges
// within a stage are simultaneous). It reports whether, after all stages,
// every rank knows every contribution — the correctness requirement for
// an allreduce-style collective built on the sequence.
func CoversAllReduce(s Sequence) bool {
	n := s.Size()
	words := (n + 63) / 64
	know := make([][]uint64, n)
	for i := range know {
		know[i] = make([]uint64, words)
		know[i][i/64] |= 1 << (i % 64)
	}
	incoming := make([][]uint64, n)
	for st := 0; st < s.NumStages(); st++ {
		stage := s.Stage(st)
		for _, p := range stage {
			if incoming[p.Dst] == nil {
				incoming[p.Dst] = make([]uint64, words)
			}
			for w, v := range know[p.Src] {
				incoming[p.Dst][w] |= v
			}
		}
		for _, p := range stage {
			if in := incoming[p.Dst]; in != nil {
				for w, v := range in {
					know[p.Dst][w] |= v
				}
				incoming[p.Dst] = nil
			}
		}
	}
	for w := 0; w < words; w++ {
		full := ^uint64(0)
		if rem := n - w*64; rem < 64 {
			full = (1 << rem) - 1
		}
		for r := 0; r < n; r++ {
			if know[r][w]&full != full {
				return false
			}
		}
	}
	return true
}

// CoversBroadcast reports whether rank root's contribution reaches every
// rank by the end of the sequence (correctness for one-to-all patterns
// like Binomial broadcast).
func CoversBroadcast(s Sequence, root int) bool {
	n := s.Size()
	know := make([]bool, n)
	know[root] = true
	for st := 0; st < s.NumStages(); st++ {
		var informed []int32
		for _, p := range s.Stage(st) {
			if know[p.Src] && !know[p.Dst] {
				informed = append(informed, p.Dst)
			}
		}
		for _, d := range informed {
			know[d] = true
		}
	}
	for _, k := range know {
		if !k {
			return false
		}
	}
	return true
}
