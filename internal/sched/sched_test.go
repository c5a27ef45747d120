package sched

import (
	"testing"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/route"
	"fattree/internal/topo"
)

func newAlloc(t *testing.T, g topo.PGFT) *Allocator {
	t.Helper()
	a, err := New(topo.MustBuild(g))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRequiresRLFT(t *testing.T) {
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 4}, []int{1, 1}))
	if _, err := New(tp); err == nil {
		t.Error("non-RLFT accepted")
	}
}

func TestGranuleIsSecondFromTopSubtreeSize(t *testing.T) {
	// On RLFTs the allocation granule equals the size of a level-(h-1)
	// sub-tree — the paper's "multiplications of 324" unit.
	for _, g := range []topo.PGFT{topo.Cluster128, topo.Cluster324, topo.Cluster1728, topo.Cluster1944} {
		a := newAlloc(t, g)
		if want := g.MProd(g.H - 1); a.Granule() != want {
			t.Errorf("%v: granule %d != level-(h-1) subtree size %d", g, a.Granule(), want)
		}
	}
}

func TestAllocLifecycle(t *testing.T) {
	a := newAlloc(t, topo.Cluster324)
	if a.FreeHosts() != 324 || a.Utilization() != 0 {
		t.Fatalf("fresh allocator: free=%d util=%v", a.FreeHosts(), a.Utilization())
	}
	j1, err := a.Alloc(162) // 9 granules
	if err != nil {
		t.Fatal(err)
	}
	if !j1.ContentionFree {
		t.Error("aligned granule-multiple job not marked contention free")
	}
	if j1.Hosts[0] != 0 || j1.Hosts[161] != 161 {
		t.Errorf("first job spans [%d,%d], want [0,161]", j1.Hosts[0], j1.Hosts[161])
	}
	j2, err := a.Alloc(162)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Hosts[0] != 162 {
		t.Errorf("second job starts at %d, want 162", j2.Hosts[0])
	}
	if a.FreeHosts() != 0 || a.Utilization() != 1 {
		t.Errorf("full machine: free=%d util=%v", a.FreeHosts(), a.Utilization())
	}
	if _, err := a.Alloc(1); err == nil {
		t.Error("over-allocation accepted")
	}
	if err := a.Free(j1.ID); err != nil {
		t.Fatal(err)
	}
	if a.FreeHosts() != 162 {
		t.Errorf("after free: %d hosts free", a.FreeHosts())
	}
	if err := a.Free(j1.ID); err == nil {
		t.Error("double free accepted")
	}
	if got := len(a.Jobs()); got != 1 {
		t.Errorf("live jobs = %d, want 1", got)
	}
}

func TestAllocNonGranuleMarksNotCF(t *testing.T) {
	a := newAlloc(t, topo.Cluster324)
	j, err := a.Alloc(100) // not a multiple of 18
	if err != nil {
		t.Fatal(err)
	}
	if j.ContentionFree {
		t.Error("non-granule job marked contention free")
	}
}

func TestAllocFragmentedFallsBack(t *testing.T) {
	a := newAlloc(t, topo.Cluster128) // granule 8
	// Fragment the machine: fill, free alternating granules.
	var jobs []*Allocation
	for i := 0; i < 16; i++ {
		j, err := a.Alloc(8)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 16; i += 2 {
		if err := a.Free(jobs[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	// 64 hosts free, but max contiguous run is 8: a 16-host job must
	// scatter and be marked not contention free.
	j, err := a.Alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if j.ContentionFree {
		t.Error("scattered job marked contention free")
	}
	if len(j.Hosts) != 16 {
		t.Errorf("scatter size = %d", len(j.Hosts))
	}
	// An 8-host job still fits contiguously and aligned.
	j8, err := a.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if !j8.ContentionFree {
		t.Error("aligned 8-host job not contention free")
	}
}

func TestAllocErrors(t *testing.T) {
	a := newAlloc(t, topo.Cluster128)
	if _, err := a.Alloc(0); err == nil {
		t.Error("zero-size job accepted")
	}
	if _, err := a.Alloc(1000); err == nil {
		t.Error("oversized job accepted")
	}
	if err := a.Free(99); err == nil {
		t.Error("freeing unknown job succeeded")
	}
}

func TestIsolationLevel(t *testing.T) {
	a := newAlloc(t, topo.Cluster1944) // granule 324 = level-2 subtree
	j1, err := a.Alloc(324)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := a.Alloc(324)
	if err != nil {
		t.Fatal(err)
	}
	// Two whole level-2 sub-trees: they share only the top level (3).
	lvl, err := a.IsolationLevel(j1.ID, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 3 {
		t.Errorf("aligned jobs isolation = %d, want 3 (meet at the top only)", lvl)
	}
	if _, err := a.IsolationLevel(j1.ID, 99); err == nil {
		t.Error("unknown job accepted")
	}
	// Force a leaf-sharing pair on the small cluster: fill an aligned
	// prefix, then two 4-host jobs — the second has no aligned slot and
	// must split leaf 15 with the first.
	b := newAlloc(t, topo.Cluster128)
	if _, err := b.Alloc(120); err != nil {
		t.Fatal(err)
	}
	ja, err := b.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if ja.Hosts[0] != 120 || jb.Hosts[0] != 124 {
		t.Fatalf("placement = %d/%d, want 120/124", ja.Hosts[0], jb.Hosts[0])
	}
	lvl, err = b.IsolationLevel(ja.ID, jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 1 {
		t.Errorf("leaf-splitting jobs isolation = %d, want 1", lvl)
	}
}

func TestTwoAlignedJobsRunContentionFreeTogether(t *testing.T) {
	// The multi-job claim the scheduler is built on: two granule-aligned
	// jobs on the global (uncompacted) D-Mod-K tables can both run full
	// Shift collectives simultaneously with combined HSD = 1.
	tp := topo.MustBuild(topo.Cluster324)
	a, err := New(tp)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := a.Alloc(162)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := a.Alloc(162)
	if err != nil {
		t.Fatal(err)
	}
	if !j1.ContentionFree || !j2.ContentionFree {
		t.Fatal("expected both jobs contention free")
	}
	lft := route.DModK(tp)
	shiftA := cps.Shift(len(j1.Hosts))
	shiftB := cps.Shift(len(j2.Hosts))
	var stages [][][2]int
	for s := 0; s < shiftA.NumStages(); s++ {
		var pairs [][2]int
		for _, p := range shiftA.Stage(s) {
			pairs = append(pairs, [2]int{j1.Hosts[p.Src], j1.Hosts[p.Dst]})
		}
		for _, p := range shiftB.Stage(s) {
			pairs = append(pairs, [2]int{j2.Hosts[p.Src], j2.Hosts[p.Dst]})
		}
		stages = append(stages, pairs)
	}
	rep := hostPairsReport(t, lft, stages)
	if !rep.ContentionFree() {
		t.Errorf("two aligned jobs contend: max HSD = %d", rep.MaxHSD())
	}
}

func TestSlotPartitionedJobsAreAccidentallyFree(t *testing.T) {
	// A subtlety of D-Mod-K: jobs that split leaves but take the *same
	// slot range in every shared leaf* use disjoint up-port sets (the
	// up port is the destination slot), so they do not contend. The
	// scheduler does not rely on this, but the property is real.
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	var hostsA, hostsB []int
	for leaf := 0; leaf < 4; leaf++ {
		for i := 0; i < 9; i++ {
			hostsA = append(hostsA, leaf*18+i)
			hostsB = append(hostsB, leaf*18+9+i)
		}
	}
	if worst := twoJobWorstHSD(t, lft, hostsA, hostsB); worst != 1 {
		t.Errorf("slot-partitioned jobs max HSD = %d, want 1", worst)
	}
}

func TestLeafSharingUnequalJobsContend(t *testing.T) {
	// The counterpoint, and the reason the scheduler insists on
	// granule alignment: two jobs that are each contention free in
	// isolation (contiguous, granule-multiple sizes) but share a leaf
	// collide on that leaf's up-ports. Job A = hosts [0,36), job B =
	// hosts [27,45): both internally fine, but in any stage A's flows
	// from leaf 1 cover all 18 up-ports while B's add 9 more.
	tp := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(tp)
	hostsA := mkRange(0, 36)
	hostsB := mkRange(27, 18)
	// Each alone is contention free.
	for _, hosts := range [][]int{hostsA, hostsB} {
		shift := cps.Shift(len(hosts))
		var stages [][][2]int
		for s := 0; s < shift.NumStages(); s++ {
			var pairs [][2]int
			for _, p := range shift.Stage(s) {
				pairs = append(pairs, [2]int{hosts[p.Src], hosts[p.Dst]})
			}
			stages = append(stages, pairs)
		}
		rep := hostPairsReport(t, lft, stages)
		if !rep.ContentionFree() {
			t.Fatalf("solo job on %d..%d not contention free (HSD %d)", hosts[0], hosts[len(hosts)-1], rep.MaxHSD())
		}
	}
	// Together they contend.
	if worst := twoJobWorstHSD(t, lft, hostsA, hostsB); worst < 2 {
		t.Errorf("leaf-sharing jobs max HSD = %d, expected contention", worst)
	}
}

// twoJobWorstHSD runs both jobs' Shifts stage-aligned (the shorter job
// cycles through its stages) and returns the worst combined per-link HSD.
func twoJobWorstHSD(t *testing.T, lft *route.LFT, hostsA, hostsB []int) int {
	t.Helper()
	shiftA := cps.Shift(len(hostsA))
	shiftB := cps.Shift(len(hostsB))
	worst := 0
	for s := 0; s < shiftA.NumStages(); s++ {
		var pairs [][2]int
		for _, p := range shiftA.Stage(s) {
			pairs = append(pairs, [2]int{hostsA[p.Src], hostsA[p.Dst]})
		}
		for _, p := range shiftB.Stage(s % shiftB.NumStages()) {
			pairs = append(pairs, [2]int{hostsB[p.Src], hostsB[p.Dst]})
		}
		rep := hostPairsReport(t, lft, [][][2]int{pairs})
		if rep.MaxHSD() > worst {
			worst = rep.MaxHSD()
		}
	}
	return worst
}

// BenchmarkSchedAllocFree measures the allocator's steady-state churn.
func BenchmarkSchedAllocFree(b *testing.B) {
	t := topo.MustBuild(topo.Cluster1944)
	a, err := New(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j1, err := a.Alloc(648)
		if err != nil {
			b.Fatal(err)
		}
		j2, err := a.Alloc(324)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(j1.ID); err != nil {
			b.Fatal(err)
		}
		if err := a.Free(j2.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// hostPairsReport replays explicit end-port stages (no rank
// translation) through one analyzer.
func hostPairsReport(t *testing.T, rt route.Router, stages [][][2]int) *hsd.Report {
	t.Helper()
	a := hsd.NewAnalyzer(rt)
	rep := &hsd.Report{}
	for _, st := range stages {
		sr, err := a.Stage(st)
		if err != nil {
			t.Fatal(err)
		}
		rep.Stages = append(rep.Stages, sr)
	}
	return rep
}
