package sched

import (
	"math/rand"
	"testing"

	"fattree/internal/topo"
)

// checkInvariants asserts the allocator's bookkeeping after any
// alloc/free sequence: live jobs hold pairwise-disjoint ascending host
// sets, every held host is marked used, and FreeHosts accounts for
// exactly the remainder.
func checkInvariants(t *testing.T, a *Allocator) {
	t.Helper()
	held := make(map[int]JobID)
	for _, j := range a.Jobs() {
		for i, h := range j.Hosts {
			if i > 0 && j.Hosts[i-1] >= h {
				t.Fatalf("job %d hosts not ascending: %v", j.ID, j.Hosts)
			}
			if owner, dup := held[h]; dup {
				t.Fatalf("host %d held by jobs %d and %d", h, owner, j.ID)
			}
			held[h] = j.ID
			if !a.freeRun[h] {
				t.Fatalf("job %d holds host %d but it is marked free", j.ID, h)
			}
		}
	}
	if got, want := a.FreeHosts(), len(a.freeRun)-len(held); got != want {
		t.Fatalf("FreeHosts = %d, want %d (%d held)", got, want, len(held))
	}
}

// TestAllocReleaseReallocKeepsGranuleInvariant drives full
// alloc→release→alloc cycles and checks that freed granule blocks come
// back with the full guarantee: after any interleaving of frees, a
// granule-multiple request that fits an aligned hole is placed aligned,
// contention free, and isolated.
func TestAllocReleaseReallocKeepsGranuleInvariant(t *testing.T) {
	a := newAlloc(t, topo.Cluster324)
	g := a.Granule()
	blocks := a.t.NumHosts() / g // 18 granule blocks

	// Cycle 1: fill the machine with granule jobs, free the odd ones.
	first := make([]JobID, 0, blocks)
	for i := 0; i < blocks; i++ {
		al, err := a.AllocAligned(g)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, al.ID)
	}
	if a.FreeHosts() != 0 {
		t.Fatalf("machine not full: %d free", a.FreeHosts())
	}
	for i := 1; i < blocks; i += 2 {
		if err := a.Free(first[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, a)

	// Cycle 2: the odd holes are exactly one granule wide; every
	// granule request must land back in one, aligned and isolated.
	second := make([]JobID, 0, blocks/2)
	for i := 1; i < blocks; i += 2 {
		al, err := a.Alloc(g)
		if err != nil {
			t.Fatal(err)
		}
		if !al.ContentionFree || !al.Isolated {
			t.Fatalf("refilled granule hole lost guarantees: %+v", al)
		}
		if al.Hosts[0]%g != 0 || len(al.Hosts) != g {
			t.Fatalf("refill not granule aligned: start %d len %d", al.Hosts[0], len(al.Hosts))
		}
		second = append(second, al.ID)
	}
	if a.FreeHosts() != 0 {
		t.Fatalf("refill left %d hosts free", a.FreeHosts())
	}
	checkInvariants(t, a)

	// Cycle 3: free everything in interleaved order, then one job can
	// span the whole machine again — release fully coalesces.
	for i := 0; i < blocks; i += 2 {
		if err := a.Free(first[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range second {
		if err := a.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, a)
	whole, err := a.AllocAligned(a.t.NumHosts())
	if err != nil {
		t.Fatalf("machine did not coalesce after frees: %v", err)
	}
	if !whole.Isolated || len(whole.Hosts) != a.t.NumHosts() {
		t.Fatalf("whole-machine realloc: %+v", whole)
	}
}

// TestAllocFragmentationDegradesThenRecovers pins the fallback ladder
// under fragmentation. Filling the machine one host at a time and then
// freeing chosen hosts carves exact free patterns: first a run of g
// hosts that crosses a granule boundary (contiguous placement possible,
// aligned impossible), then only sub-granule runs and scattered singles
// (scatter placement, no CF flag). Freeing everything restores the
// aligned path.
func TestAllocFragmentationDegradesThenRecovers(t *testing.T) {
	a := newAlloc(t, topo.Cluster128)
	g := a.Granule() // 8 on the 128-host cluster
	n := a.t.NumHosts()

	// Fill host by host, recording which job holds which host.
	owner := make(map[int]JobID, n)
	for i := 0; i < n; i++ {
		al, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		owner[al.Hosts[0]] = al.ID
	}
	if a.FreeHosts() != 0 {
		t.Fatalf("fill left %d hosts free", a.FreeHosts())
	}
	freeHost := func(h int) {
		t.Helper()
		if err := a.Free(owner[h]); err != nil {
			t.Fatal(err)
		}
		delete(owner, h)
	}

	// Free hosts 1..g+g/2-1: a contiguous run longer than g that starts
	// off-boundary and whose only aligned start (host g) cannot reach a
	// full granule (host g+g/2 is still held).
	for h := 1; h < g+g/2; h++ {
		freeHost(h)
	}
	checkInvariants(t, a)
	if _, err := a.AllocAligned(g); err == nil {
		t.Fatal("AllocAligned found a block in a wedged machine")
	}
	spill, err := a.Alloc(g)
	if err != nil {
		t.Fatal(err)
	}
	if !spill.ContentionFree || spill.Isolated {
		t.Fatalf("contiguous unaligned placement flags: %+v", spill)
	}
	if spill.Hosts[0] != 1 {
		t.Fatalf("contiguous placement at %d, want 1", spill.Hosts[0])
	}

	// Now only hosts g+g/2-g..: remaining free run is g/2-1 < g. Free
	// alternating hosts in the next block for g scattered singles; a
	// granule request must fall through to scatter and lose CF.
	for i := 0; i < g; i++ {
		freeHost(2*g + 2*i)
	}
	checkInvariants(t, a)
	scat, err := a.Alloc(g)
	if err != nil {
		t.Fatal(err)
	}
	if scat.ContentionFree || scat.Isolated {
		t.Fatalf("scattered placement flags: %+v", scat)
	}
	if len(scat.Hosts) != g {
		t.Fatalf("scatter served %d hosts, want %d", len(scat.Hosts), g)
	}

	// Recovery: free every remaining single plus both test jobs; the
	// aligned path comes back isolated.
	for h := range owner {
		freeHost(h)
	}
	if err := a.Free(spill.ID); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(scat.ID); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, a)
	again, err := a.AllocAligned(g)
	if err != nil {
		t.Fatalf("aligned path did not recover: %v", err)
	}
	if !again.Isolated {
		t.Fatalf("recovered aligned alloc not isolated: %+v", again)
	}
}

// TestAllocFreeRandomizedChurn hammers the allocator with a seeded
// random alloc/free mix and re-checks the invariants continuously; a
// final drain must return the machine to fully free.
func TestAllocFreeRandomizedChurn(t *testing.T) {
	a := newAlloc(t, topo.Cluster128)
	g := a.Granule()
	rng := rand.New(rand.NewSource(7))
	var live []JobID
	for step := 0; step < 500; step++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(live))
			if err := a.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		} else {
			size := 1 + rng.Intn(2*g)
			al, err := a.Alloc(size)
			if err != nil {
				if size <= a.FreeHosts() {
					t.Fatalf("step %d: alloc(%d) failed with %d free: %v",
						step, size, a.FreeHosts(), err)
				}
				continue
			}
			if len(al.Hosts) != size {
				t.Fatalf("step %d: got %d hosts, want %d", step, len(al.Hosts), size)
			}
			live = append(live, al.ID)
		}
		if step%25 == 0 {
			checkInvariants(t, a)
		}
	}
	for _, id := range live {
		if err := a.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, a)
	if a.FreeHosts() != a.t.NumHosts() {
		t.Fatalf("drain left %d of %d hosts", a.FreeHosts(), a.t.NumHosts())
	}
	if len(a.Jobs()) != 0 {
		t.Fatalf("drain left %d live jobs", len(a.Jobs()))
	}
}
