package order

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"fattree/internal/topo"
)

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 4, []int{0, 1, 2, 3}); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	if _, err := New("x", 4, []int{0, 0}); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := New("x", 4, []int{4}); err == nil {
		t.Error("out-of-range host accepted")
	}
	if _, err := New("x", 4, []int{-1}); err == nil {
		t.Error("negative host accepted")
	}
}

func TestTopologyOrder(t *testing.T) {
	o := Topology(8, nil)
	if o.Size() != 8 || o.NumHosts() != 8 {
		t.Fatalf("size/hosts = %d/%d, want 8/8", o.Size(), o.NumHosts())
	}
	for r := 0; r < 8; r++ {
		if o.HostOf[r] != r {
			t.Errorf("rank %d on host %d, want identity", r, o.HostOf[r])
		}
		if o.RankOf(r) != r {
			t.Errorf("RankOf(%d) = %d, want identity", r, o.RankOf(r))
		}
	}
}

func TestTopologyOrderPartial(t *testing.T) {
	o := Topology(10, []int{7, 2, 9, 4})
	want := []int{2, 4, 7, 9}
	for r, h := range want {
		if o.HostOf[r] != h {
			t.Errorf("rank %d on host %d, want %d", r, o.HostOf[r], h)
		}
	}
	if o.RankOf(3) != -1 {
		t.Errorf("inactive host has rank %d, want -1", o.RankOf(3))
	}
	active := slices.Clone(o.HostOf)
	slices.Sort(active)
	for i, h := range want {
		if active[i] != h {
			t.Fatalf("active hosts = %v, want %v", active, want)
		}
	}
}

func TestRandomOrderDeterministicPerSeed(t *testing.T) {
	a := Random(100, nil, 5)
	b := Random(100, nil, 5)
	c := Random(100, nil, 6)
	sameAB, sameAC := true, true
	for r := range a.HostOf {
		if a.HostOf[r] != b.HostOf[r] {
			sameAB = false
		}
		if a.HostOf[r] != c.HostOf[r] {
			sameAC = false
		}
	}
	if !sameAB {
		t.Error("same seed gave different orders")
	}
	if sameAC {
		t.Error("different seeds gave identical orders")
	}
	// It must still be a permutation.
	seen := make(map[int]bool)
	for _, h := range a.HostOf {
		if seen[h] {
			t.Fatalf("host %d twice", h)
		}
		seen[h] = true
	}
	if len(seen) != 100 {
		t.Fatalf("only %d hosts covered", len(seen))
	}
}

func TestRandomOrderPartialKeepsActiveSet(t *testing.T) {
	active := []int{3, 1, 4, 15, 9, 2, 6}
	o := Random(16, active, 7)
	if o.Size() != len(active) {
		t.Fatalf("size = %d, want %d", o.Size(), len(active))
	}
	got := slices.Clone(o.HostOf)
	slices.Sort(got)
	want := []int{1, 2, 3, 4, 6, 9, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("active hosts = %v, want %v", got, want)
		}
	}
}

func TestActivePanics(t *testing.T) {
	for _, bad := range [][]int{{0, 0}, {-1}, {16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("active %v did not panic", bad)
				}
			}()
			Topology(16, bad)
		}()
	}
}

func TestAdversarialProperties(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128) // K=8, 16 leaves
	o, err := Adversarial(tp)
	if err != nil {
		t.Fatal(err)
	}
	k := 8
	n := tp.NumHosts()
	if o.Size() != n {
		t.Fatalf("size = %d, want %d", o.Size(), n)
	}
	// Under the Ring pattern (rank r -> r+1), count per-leaf
	// destination slots: excluding splice points, all flows leaving a
	// leaf must target one slot (one D-Mod-K up port), and no flow may
	// stay inside its leaf.
	slotCount := make(map[int]map[int]int) // leaf -> slot -> flows
	splices := 0
	for r := 0; r < n; r++ {
		src := o.HostOf[r]
		dst := o.HostOf[(r+1)%n]
		if src/k == dst/k {
			splices++ // only cycle splices may stay inside the leaf
			continue
		}
		leaf := src / k
		if slotCount[leaf] == nil {
			slotCount[leaf] = make(map[int]int)
		}
		slotCount[leaf][dst%k]++
	}
	// Cycle splices scatter a handful of stray flows, but every leaf
	// must still be dominated by one slot (one up port) carrying close
	// to K flows — that is what creates the K-fold oversubscription.
	for leaf, slots := range slotCount {
		best := 0
		for _, c := range slots {
			if c > best {
				best = c
			}
		}
		if best < k-2 {
			t.Errorf("leaf %d: dominant slot carries %d flows, want >= %d", leaf, best, k-2)
		}
	}
	if splices > n/k {
		t.Errorf("too many splice flows: %d", splices)
	}
}

func TestAdversarialMaximizesLeafCongestion(t *testing.T) {
	// At least one leaf must push (almost) all its K flows through one
	// slot, i.e. max per-leaf single-slot count close to K.
	tp := topo.MustBuild(topo.Cluster324) // K=18, 18 leaves
	o, err := Adversarial(tp)
	if err != nil {
		t.Fatal(err)
	}
	k := 18
	n := tp.NumHosts()
	best := 0
	counts := make(map[[2]int]int) // (leaf, slot) -> flows
	for r := 0; r < n; r++ {
		src := o.HostOf[r]
		dst := o.HostOf[(r+1)%n]
		if src/k == dst/k {
			continue
		}
		counts[[2]int{src / k, dst % k}]++
	}
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	if best < k-2 {
		t.Errorf("max flows per leaf up-port = %d, want close to K=%d", best, k)
	}
}

func TestAdversarialErrors(t *testing.T) {
	// Non-RLFT rejected.
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 4}, []int{1, 1}))
	if _, err := Adversarial(tp); err == nil {
		t.Error("non-RLFT accepted")
	}
	// Single level rejected.
	tp1 := topo.MustBuild(topo.MustPGFT(1, []int{8}, []int{1}, []int{1}))
	if _, err := Adversarial(tp1); err == nil {
		t.Error("single-level tree accepted")
	}
	// K not dividing leaf count rejected: RLFT2(4, 2) has 2 leaves, K=4.
	g, err := topo.RLFT2(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Adversarial(topo.MustBuild(g)); err == nil {
		t.Error("K not dividing leaf count accepted")
	}
}

func TestInverseMatchesRankOf(t *testing.T) {
	o := Random(32, []int{0, 3, 5, 6, 9, 17, 31}, 3)
	ranks := 0
	for h := 0; h < o.NumHosts(); h++ {
		if r := o.RankOf(h); r >= 0 {
			ranks++
			if o.HostOf[r] != h {
				t.Fatalf("HostOf[RankOf(%d)] = %d", h, o.HostOf[r])
			}
		}
	}
	if ranks != o.Size() {
		t.Fatalf("%d hosts hold a rank, want %d", ranks, o.Size())
	}
}

func TestCyclicOrdering(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128) // 16 leaves x 8 hosts
	o, err := Cyclic(tp)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 on leaf 0 slot 0; rank 1 on leaf 1 slot 0; rank 16 on
	// leaf 0 slot 1.
	if o.HostOf[0] != 0 {
		t.Errorf("rank 0 on host %d", o.HostOf[0])
	}
	if o.HostOf[1] != 8 {
		t.Errorf("rank 1 on host %d, want 8 (leaf 1 slot 0)", o.HostOf[1])
	}
	if o.HostOf[16] != 1 {
		t.Errorf("rank 16 on host %d, want 1 (leaf 0 slot 1)", o.HostOf[16])
	}
	// It is a permutation covering everything.
	seen := make(map[int]bool)
	for _, h := range o.HostOf {
		if seen[h] {
			t.Fatalf("host %d twice", h)
		}
		seen[h] = true
	}
	if len(seen) != 128 {
		t.Errorf("covered %d hosts", len(seen))
	}
}

// TestByName: every name resolves to the constructor's ordering, the
// active set is honoured or refused, unknown names are errors.
func TestByName(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	n := tp.NumHosts()
	adv, _ := Adversarial(tp)
	cyc, _ := Cyclic(tp)
	for name, want := range map[string]*Ordering{
		"topology":    Topology(n, nil),
		"random":      Random(n, nil, 9),
		"adversarial": adv,
		"cyclic":      cyc,
	} {
		got, err := ByName(name, tp, nil, 9)
		if err != nil || got.Label != want.Label || !reflect.DeepEqual(got.HostOf, want.HostOf) {
			t.Errorf("ByName(%q) = %v, %v; want the %s ordering", name, got, err, want.Label)
		}
	}
	active := []int{5, 1, 9, 64}
	if got, err := ByName("random", tp, active, 2); err != nil || !reflect.DeepEqual(got.HostOf, Random(n, active, 2).HostOf) {
		t.Errorf("partial random: %v, %v", got, err)
	}
	for _, name := range []string{"adversarial", "cyclic"} {
		if _, err := ByName(name, tp, active, 0); err == nil || !strings.Contains(err.Error(), "full population only") {
			t.Errorf("%s on a partial job: %v", name, err)
		}
	}
	if _, err := ByName("nope", tp, nil, 0); err == nil || !strings.Contains(err.Error(), `unknown ordering "nope"`) {
		t.Errorf("unknown name: %v", err)
	}
}
