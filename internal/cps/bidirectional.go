package cps

// The two bidirectional sequences of Table 2. Every exchange implies the
// reverse exchange within the same stage. Non-power-of-2 job sizes are
// handled the way MPI implementations do (Section VI, equations 3 and 4):
// a "pre" permutation folds the remainder ranks above the largest power of
// two onto proxies below it, and a "post" permutation unfolds the result.

// RecursiveSeq implements Recursive-Doubling and Recursive-Halving; the
// two differ only in the order the XOR stages are played.
type RecursiveSeq struct {
	n       int
	halving bool
	pow     int // largest power of two <= n
}

// RecursiveDoubling returns the Recursive-Doubling CPS (allreduce,
// allgather for small messages, "Butterfly" in the paper's Figure 3).
func RecursiveDoubling(n int) *RecursiveSeq {
	checkSize("recursive-doubling", n)
	return &RecursiveSeq{n: n, pow: 1 << log2Floor(n)}
}

// RecursiveHalving returns the Recursive-Halving CPS (reduce-scatter);
// the same permutations with the XOR stages in descending distance order.
func RecursiveHalving(n int) *RecursiveSeq {
	checkSize("recursive-halving", n)
	return &RecursiveSeq{n: n, halving: true, pow: 1 << log2Floor(n)}
}

// Name implements Sequence.
func (s *RecursiveSeq) Name() string {
	if s.halving {
		return "recursive-halving"
	}
	return "recursive-doubling"
}

// Size implements Sequence.
func (s *RecursiveSeq) Size() int { return s.n }

// hasProxy reports whether pre/post stages are needed.
func (s *RecursiveSeq) hasProxy() bool { return s.n != s.pow }

// NumStages implements Sequence.
func (s *RecursiveSeq) NumStages() int {
	st := log2Floor(s.n)
	if s.hasProxy() {
		st += 2
	}
	return st
}

// Bidirectional implements Sequence.
func (s *RecursiveSeq) Bidirectional() bool { return true }

// Stage implements Sequence. With proxies the layout is
// [pre, xor stages..., post]; the xor stages run with ascending distance
// for doubling and descending for halving.
func (s *RecursiveSeq) Stage(st int) Stage {
	d := s.distance(st)
	if d == 0 {
		return s.proxyStage(st == 0)
	}
	out := make(Stage, s.pow)
	for i := range out {
		out[i] = Pair{int32(i), int32(i ^ d)}
	}
	return out
}

// Exchange implements Exchanging: every stage but the proxies' is the
// exchange at its distance over the pow ranks below the remainder.
func (s *RecursiveSeq) Exchange(st int) (m, span int) {
	if d := s.distance(st); d > 0 {
		return d, s.pow
	}
	return 0, 0
}

// distance returns the XOR distance of stage st, and 0 for the pre and
// post stages of a job with proxies.
func (s *RecursiveSeq) distance(st int) int {
	nx := log2Floor(s.n)
	if s.hasProxy() {
		if st == 0 || st == nx+1 {
			return 0
		}
		st--
	}
	if s.halving {
		st = nx - 1 - st
	}
	return 1 << st
}

// proxyStage builds equation (3) (pre: remainder -> proxy) or
// equation (4) (post: proxy -> remainder).
func (s *RecursiveSeq) proxyStage(pre bool) Stage {
	out := make(Stage, s.n-s.pow)
	for i := range out {
		if pre {
			out[i] = Pair{int32(i + s.pow), int32(i)}
		} else {
			out[i] = Pair{int32(i), int32(i + s.pow)}
		}
	}
	return out
}
