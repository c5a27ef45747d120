package cps

import (
	"testing"
	"testing/quick"
)

var jobSizes = []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 18, 31, 32, 63, 100, 128, 324}

func allSequences(n int) []Sequence {
	return []Sequence{
		Shift(n),
		Ring(n),
		RingAllgather(n),
		Binomial(n),
		Dissemination(n),
		Tournament(n),
		RecursiveDoubling(n),
		RecursiveHalving(n),
	}
}

func TestValidateAll(t *testing.T) {
	for _, n := range jobSizes {
		for _, s := range allSequences(n) {
			if err := Validate(s); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		}
	}
}

func TestConstantDisplacementPrinciple(t *testing.T) {
	// Section III observation 1: every stage of every CPS has constant
	// displacement; for bidirectional stages each direction separately.
	for _, n := range jobSizes {
		if n < 2 {
			continue
		}
		for _, s := range allSequences(n) {
			for st := 0; st < s.NumStages(); st++ {
				stage := s.Stage(st)
				if len(stage) == 0 {
					continue
				}
				if !s.Bidirectional() {
					if _, ok := Displacement(stage, n); !ok {
						t.Errorf("%s n=%d stage %d: mixed displacements", s.Name(), n, st)
					}
					continue
				}
				fwd, bwd := SplitDirections(stage, n)
				if _, ok := Displacement(fwd, n); !ok {
					t.Errorf("%s n=%d stage %d: forward half mixed", s.Name(), n, st)
				}
				if _, ok := Displacement(bwd, n); !ok {
					t.Errorf("%s n=%d stage %d: backward half mixed", s.Name(), n, st)
				}
			}
		}
	}
}

func TestShiftSupersetPrinciple(t *testing.T) {
	// Section III observation 3: every stage of every unidirectional
	// CPS is a sub-permutation of a Shift stage.
	for _, n := range jobSizes {
		if n < 2 {
			continue
		}
		for _, s := range allSequences(n) {
			if s.Bidirectional() {
				continue
			}
			for st := 0; st < s.NumStages(); st++ {
				if !IsSubPermutationOfShift(s.Stage(st), n) {
					t.Errorf("%s n=%d stage %d: not inside a Shift stage", s.Name(), n, st)
				}
			}
		}
	}
}

func TestBidirectionalSymmetry(t *testing.T) {
	// Table 2: for bidirectional CPS, the presence of (a,b) in a stage
	// implies (b,a) in the same stage.
	for _, n := range jobSizes {
		for _, s := range []Sequence{RecursiveDoubling(n), RecursiveHalving(n)} {
			for st := 0; st < s.NumStages(); st++ {
				stage := s.Stage(st)
				// Pre/post proxy stages are the documented exception:
				// they are unidirectional by construction.
				if hasProxyAt(s.(*RecursiveSeq), st) {
					continue
				}
				set := make(map[Pair]bool, len(stage))
				for _, p := range stage {
					set[p] = true
				}
				for _, p := range stage {
					if !set[Pair{p.Dst, p.Src}] {
						t.Errorf("%s n=%d stage %d: %v lacks reverse", s.Name(), n, st, p)
					}
				}
			}
		}
	}
}

func hasProxyAt(s *RecursiveSeq, st int) bool {
	return s.hasProxy() && (st == 0 || st == s.NumStages()-1)
}

func TestShiftStages(t *testing.T) {
	s := Shift(16)
	if s.NumStages() != 15 {
		t.Fatalf("shift(16) stages = %d, want 15", s.NumStages())
	}
	// The Figure 1 pattern: stage with displacement 4 is Stage(3).
	st := s.Stage(3)
	if len(st) != 16 {
		t.Fatalf("stage size = %d, want 16", len(st))
	}
	for _, p := range st {
		if int(p.Dst) != (int(p.Src)+4)%16 {
			t.Errorf("displacement-4 stage has %v", p)
		}
	}
}

func TestRingIsShiftByOne(t *testing.T) {
	r := Ring(7)
	if r.NumStages() != 1 {
		t.Fatalf("ring stages = %d, want 1", r.NumStages())
	}
	st := r.Stage(0)
	d, ok := Displacement(st, 7)
	if !ok || d != 1 {
		t.Fatalf("ring displacement = (%d,%v), want (1,true)", d, ok)
	}
	ra := RingAllgather(7)
	if ra.NumStages() != 6 {
		t.Fatalf("ring allgather stages = %d, want 6", ra.NumStages())
	}
}

func TestBinomialExample(t *testing.T) {
	// The paper's worked example: stage 0 only 0->1; stage 1 is 0->2,
	// 1->3; stage 2 is 0->4, 1->5, 2->6, 3->7.
	s := Binomial(1024)
	if s.NumStages() != 10 {
		t.Fatalf("binomial(1024) stages = %d, want 10", s.NumStages())
	}
	want := []Stage{
		{{0, 1}},
		{{0, 2}, {1, 3}},
		{{0, 4}, {1, 5}, {2, 6}, {3, 7}},
	}
	for st, w := range want {
		got := s.Stage(st)
		if len(got) != len(w) {
			t.Fatalf("stage %d size = %d, want %d", st, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("stage %d pair %d = %v, want %v", st, i, got[i], w[i])
			}
		}
	}
}

func TestBinomialCoversBroadcast(t *testing.T) {
	for _, n := range jobSizes {
		if !CoversBroadcast(Binomial(n), 0) {
			t.Errorf("binomial(%d) does not reach every rank", n)
		}
	}
}

func TestDisseminationCoversAllReduce(t *testing.T) {
	// Dissemination informs everyone about everyone in ceil(log2 n)
	// stages.
	for _, n := range jobSizes {
		if !CoversAllReduce(Dissemination(n)) {
			t.Errorf("dissemination(%d) incomplete", n)
		}
	}
}

func TestTournamentGathersToRoot(t *testing.T) {
	// After the tournament, rank 0 must know every contribution:
	// simulate reversed broadcast by checking the union converges at 0.
	for _, n := range jobSizes {
		s := Tournament(n)
		know := make([]map[int]bool, n)
		for i := range know {
			know[i] = map[int]bool{i: true}
		}
		for st := 0; st < s.NumStages(); st++ {
			for _, p := range s.Stage(st) {
				for k := range know[p.Src] {
					know[p.Dst][k] = true
				}
			}
		}
		if len(know[0]) != n {
			t.Errorf("tournament(%d): root knows %d of %d", n, len(know[0]), n)
		}
	}
}

func TestRecursiveDoublingCoversAllReduce(t *testing.T) {
	for _, n := range jobSizes {
		if !CoversAllReduce(RecursiveDoubling(n)) {
			t.Errorf("recursive-doubling(%d) incomplete", n)
		}
	}
}

func TestRecursiveDoublingStageCounts(t *testing.T) {
	cases := []struct{ n, want int }{
		{8, 3}, {16, 4}, {1024, 10},
		{5, 2 + 2}, {18, 4 + 2}, {1944, 10 + 2},
	}
	for _, tc := range cases {
		if got := RecursiveDoubling(tc.n).NumStages(); got != tc.want {
			t.Errorf("recursive-doubling(%d) stages = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestRecursiveHalvingReversesStages(t *testing.T) {
	n := 16
	d := RecursiveDoubling(n)
	h := RecursiveHalving(n)
	last := h.NumStages() - 1
	for st := 0; st <= last; st++ {
		ds, hs := d.Stage(st), h.Stage(last-st)
		if len(ds) != len(hs) {
			t.Fatalf("stage %d sizes %d vs %d", st, len(ds), len(hs))
		}
		for i := range ds {
			if ds[i] != hs[i] {
				t.Errorf("stage %d pair %d: %v vs %v", st, i, ds[i], hs[i])
			}
		}
	}
}

func TestRecursiveProxiesNonPow2(t *testing.T) {
	s := RecursiveDoubling(6) // pow = 4, remainder ranks 4,5
	pre := s.Stage(0)
	if len(pre) != 2 || pre[0] != (Pair{4, 0}) || pre[1] != (Pair{5, 1}) {
		t.Errorf("pre stage = %v, want [(4->0) (5->1)]", pre)
	}
	post := s.Stage(s.NumStages() - 1)
	if len(post) != 2 || post[0] != (Pair{0, 4}) || post[1] != (Pair{1, 5}) {
		t.Errorf("post stage = %v, want [(0->4) (1->5)]", post)
	}
}

func TestDisplacementHelper(t *testing.T) {
	if d, ok := Displacement(Stage{{0, 3}, {1, 4}, {5, 0}}, 8); !ok || d != 3 {
		t.Errorf("Displacement = (%d,%v), want (3,true)", d, ok)
	}
	if _, ok := Displacement(Stage{{0, 3}, {1, 5}}, 8); ok {
		t.Error("mixed stage reported constant")
	}
	if d, ok := Displacement(nil, 8); !ok || d != 0 {
		t.Errorf("empty stage = (%d,%v), want (0,true)", d, ok)
	}
}

func TestValidateCatchesBadStages(t *testing.T) {
	bad := []struct {
		name string
		st   Stage
	}{
		{"out of range", Stage{{0, 9}}},
		{"negative", Stage{{-1, 0}}},
		{"self", Stage{{2, 2}}},
		{"double send", Stage{{0, 1}, {0, 2}}},
		{"double recv", Stage{{0, 2}, {1, 2}}},
	}
	for _, tc := range bad {
		s := &fixedSeq{n: 8, stages: []Stage{tc.st}}
		if err := Validate(s); err == nil {
			t.Errorf("%s: Validate accepted %v", tc.name, tc.st)
		}
	}
}

// fixedSeq is a test helper with explicit stages.
type fixedSeq struct {
	n      int
	stages []Stage
}

func (f *fixedSeq) Name() string        { return "fixed" }
func (f *fixedSeq) Size() int           { return f.n }
func (f *fixedSeq) NumStages() int      { return len(f.stages) }
func (f *fixedSeq) Stage(s int) Stage   { return f.stages[s] }
func (f *fixedSeq) Bidirectional() bool { return false }

func TestShiftStagePermutationQuick(t *testing.T) {
	// Property: every Shift stage is a permutation (each rank sends
	// once, receives once).
	f := func(nRaw, sRaw uint8) bool {
		n := 2 + int(nRaw)%60
		s := int(sRaw) % (n - 1)
		st := Shift(n).Stage(s)
		srcs := make(map[int32]bool)
		dsts := make(map[int32]bool)
		for _, p := range st {
			if srcs[p.Src] || dsts[p.Dst] {
				return false
			}
			srcs[p.Src] = true
			dsts[p.Dst] = true
		}
		return len(srcs) == n && len(dsts) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLog2Helpers(t *testing.T) {
	cases := []struct{ n, fl, cl int }{
		{1, 0, 0}, {2, 1, 1}, {3, 1, 2}, {4, 2, 2}, {5, 2, 3},
		{1024, 10, 10}, {1944, 10, 11},
	}
	for _, tc := range cases {
		if got := log2Floor(tc.n); got != tc.fl {
			t.Errorf("log2Floor(%d) = %d, want %d", tc.n, got, tc.fl)
		}
		if got := log2Ceil(tc.n); got != tc.cl {
			t.Errorf("log2Ceil(%d) = %d, want %d", tc.n, got, tc.cl)
		}
	}
}

func TestSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Shift(0) did not panic")
		}
	}()
	Shift(0)
}
