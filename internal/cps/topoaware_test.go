package cps

import (
	"math/rand"
	"testing"
)

func TestTopoAwareFullTreeStructure(t *testing.T) {
	// Full tree 4x4 (16 hosts): both levels are powers of two, so the
	// sequence is exactly 2+2 XOR stages, no pre/post/fixups.
	s, err := TopoAwareRecursiveDoubling([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 16 {
		t.Fatalf("size = %d, want 16", s.Size())
	}
	// Two XOR stages per level: no pre, post or fixup stage.
	if s.NumStages() != 4 {
		t.Fatalf("stages = %d, want 4", s.NumStages())
	}
	if err := Validate(s); err != nil {
		t.Error(err)
	}
	if !CoversAllReduce(s) {
		t.Error("full 4x4 topo-aware RD incomplete")
	}
}

func TestTopoAwareNonPow2Levels(t *testing.T) {
	// 18 hosts per leaf: L=4, pre+post per level.
	s, err := TopoAwareRecursiveDoubling([]int{18, 18})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 324 {
		t.Fatalf("size = %d, want 324", s.Size())
	}
	// Per paper: at most 2 extra stages per level when K not pow2: a
	// pre and a post stage around 4 XOR stages, and no fixups on a full
	// tree: stages = 2*(4+2) = 12.
	if s.NumStages() != 12 {
		t.Fatalf("stages = %d, want 12", s.NumStages())
	}
	if err := Validate(s); err != nil {
		t.Error(err)
	}
	if !CoversAllReduce(s) {
		t.Error("full 18x18 topo-aware RD incomplete")
	}
}

func TestTopoAwareFirstGroupStaysInLeaf(t *testing.T) {
	// Level-1 stages must only pair hosts of the same leaf.
	s, err := TopoAwareRecursiveDoubling([]int{6, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Level 1 (m=6) is stages 0..3: pre, two XOR stages, post. Level 2
	// (m=4) is stages 4..5: two XOR stages.
	if s.NumStages() != 6 {
		t.Fatalf("stages = %d, want 6", s.NumStages())
	}
	for st := 0; st <= 3; st++ {
		for _, p := range s.Stage(st) {
			if int(p.Src)/6 != int(p.Dst)/6 {
				t.Errorf("level-1 stage %d pairs across leaves: %v", st, p)
			}
		}
	}
	// Level-2 stages must pair across leaves at identical offsets.
	for st := 4; st <= 5; st++ {
		for _, p := range s.Stage(st) {
			if int(p.Src)/6 == int(p.Dst)/6 {
				t.Errorf("level-2 stage %d pairs within a leaf: %v", st, p)
			}
			if int(p.Src)%6 != int(p.Dst)%6 {
				t.Errorf("level-2 stage %d not member-aligned: %v", st, p)
			}
		}
	}
}

func TestTopoAwareHierarchicalDisplacement(t *testing.T) {
	// Theorem 3 requirement: within a stage, all pairs have the same
	// absolute index displacement (in each direction) on a full tree.
	s, err := TopoAwareRecursiveDoubling([]int{6, 6, 4})
	if err != nil {
		t.Fatal(err)
	}
	n := s.Size()
	for st := 0; st < s.NumStages(); st++ {
		fwd, bwd := SplitDirections(s.Stage(st), n)
		if _, ok := Displacement(fwd, n); !ok {
			t.Errorf("stage %d forward half mixed", st)
		}
		if _, ok := Displacement(bwd, n); !ok {
			t.Errorf("stage %d backward half mixed", st)
		}
	}
}

func TestTopoAwarePartialWholeLeafRemoval(t *testing.T) {
	// Removing whole leaves keeps populations even: no fixup stages.
	var active []int
	for leaf := 0; leaf < 8; leaf++ {
		if leaf == 2 || leaf == 5 || leaf == 7 {
			continue
		}
		for i := 0; i < 4; i++ {
			active = append(active, leaf*4+i)
		}
	}
	s, err := TopoAwareRecursiveDoublingPartial([]int{4, 8}, active)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 20 {
		t.Fatalf("size = %d, want 20", s.Size())
	}
	// Level 1: two XOR stages over 4 hosts per leaf; level 2: pre, two
	// XOR stages and post over 5 leaves. Any more is a fixup stage.
	if s.NumStages() != 6 {
		t.Errorf("stages = %d, want 6: fixups despite even populations", s.NumStages())
	}
	if err := Validate(s); err != nil {
		t.Error(err)
	}
	if !CoversAllReduce(s) {
		t.Error("whole-leaf-removal sequence incomplete")
	}
}

func TestTopoAwarePartialRandomRemoval(t *testing.T) {
	// Random node removal: fixups may appear, but the sequence must
	// remain a valid, complete allreduce schedule.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 64
		drop := 1 + r.Intn(20)
		perm := r.Perm(n)
		active := perm[drop:]
		s, err := TopoAwareRecursiveDoublingPartial([]int{4, 4, 4}, active)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Validate(s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !CoversAllReduce(s) {
			t.Fatalf("trial %d: incomplete coverage (dropped %d)", trial, drop)
		}
	}
}

func TestTopoAwareSingleHost(t *testing.T) {
	s, err := TopoAwareRecursiveDoublingPartial([]int{4, 4}, []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumStages() != 0 {
		t.Errorf("single-host job has %d stages, want 0", s.NumStages())
	}
	if !CoversAllReduce(s) {
		t.Error("trivial job must trivially cover")
	}
}

func TestTopoAwareErrors(t *testing.T) {
	if _, err := TopoAwareRecursiveDoubling(nil); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := TopoAwareRecursiveDoubling([]int{0, 4}); err == nil {
		t.Error("zero children accepted")
	}
	if _, err := TopoAwareRecursiveDoubling([]int{128}); err == nil {
		t.Error("over-64 children accepted")
	}
	if _, err := TopoAwareRecursiveDoublingPartial([]int{4, 4}, []int{1, 1}); err == nil {
		t.Error("duplicate active accepted")
	}
	if _, err := TopoAwareRecursiveDoublingPartial([]int{4, 4}, []int{16}); err == nil {
		t.Error("out-of-range active accepted")
	}
	if _, err := TopoAwareRecursiveDoublingPartial([]int{4, 4}, nil); err == nil {
		t.Error("empty active accepted")
	}
}

func TestTopoAwareMatchesPlainRDInfoFlow(t *testing.T) {
	// Information-flow equivalence with plain recursive doubling: both
	// must complete an allreduce; the topo-aware one may use more
	// stages but never more than sum_l (log2ceil(m_l)+2).
	for _, shape := range [][]int{{4, 4}, {6, 6}, {18, 18}, {12, 12, 12}} {
		s, err := TopoAwareRecursiveDoubling(shape)
		if err != nil {
			t.Fatal(err)
		}
		bound := 0
		for _, m := range shape {
			bound += log2Ceil(m) + 2
		}
		if s.NumStages() > bound {
			t.Errorf("shape %v: %d stages exceeds bound %d", shape, s.NumStages(), bound)
		}
		if !CoversAllReduce(s) {
			t.Errorf("shape %v: incomplete", shape)
		}
	}
}

func TestTopoAwareQuickRandomShapes(t *testing.T) {
	// Property sweep: random small tree shapes and random partial
	// populations always produce valid, complete allreduce schedules.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		h := 1 + r.Intn(3)
		shape := make([]int, h)
		n := 1
		for i := range shape {
			shape[i] = 2 + r.Intn(6)
			n *= shape[i]
		}
		var active []int
		if r.Intn(2) == 0 {
			perm := r.Perm(n)
			keep := 1 + r.Intn(n)
			active = perm[:keep]
		}
		seq, err := TopoAwareRecursiveDoublingPartial(shape, activeOrAllHosts(n, active))
		if err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if err := Validate(seq); err != nil {
			t.Fatalf("shape %v: %v", shape, err)
		}
		if !CoversAllReduce(seq) {
			t.Fatalf("shape %v active %d: incomplete", shape, seq.Size())
		}
	}
}

func activeOrAllHosts(n int, active []int) []int {
	if active != nil {
		return active
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
