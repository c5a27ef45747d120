package sched

import (
	"fmt"
	"sort"

	"fattree/internal/topo"
)

// Allocator places MPI jobs onto a Real-Life Fat-Tree so that the
// paper's contention-free guarantee survives. The paper proves the
// guarantee for a single job spanning the whole machine and remarks that
// utility clusters run many jobs, pointing at sub-allocations "in
// multiplications of 324 nodes" on the maximal 3-level tree; this
// Allocator turns that remark into a scheduler.
//
// Two facts drive the policy (both verified by this repository's
// experiments):
//
//  1. Within a job routed by the global D-Mod-K tables, the Shift CPS is
//     contention free when the job occupies a contiguous block of
//     end-ports whose size is a multiple of the allocation granule
//     G = prod(w_i)*p_h (at any offset) — on an RLFT, G equals the size
//     of a level-(h-1) sub-tree (324 on the paper's 1944-node cluster).
//  2. Jobs in disjoint granule blocks never share a link: each block is
//     a set of whole level-(h-1) sub-trees, so all intra-job traffic
//     stays on that sub-tree's links plus its private slice of top
//     switch ports.
type Allocator struct {
	t       *topo.Topology
	granule int
	freeRun []bool // per host
	jobs    map[JobID]*Allocation
	nextID  JobID
}

// JobID names an allocation.
type JobID int

// Allocation is a placed job.
type Allocation struct {
	ID    JobID
	Hosts []int // ascending end-port indices
	// ContentionFree reports whether the job's own collectives keep
	// HSD = 1: a contiguous block whose size is a granule multiple
	// (any offset — the Shift wrap stays aligned regardless).
	ContentionFree bool
	// Isolated additionally guarantees the job never shares a granule
	// block (level-(h-1) sub-tree) with any other allocation: the
	// block starts on a granule boundary and covers whole granules,
	// so concurrent jobs cannot contend with it either.
	Isolated bool
}

// New builds an allocator for an RLFT topology.
func New(t *topo.Topology) (*Allocator, error) {
	if _, ok := t.Spec.IsRLFT(); !ok {
		return nil, fmt.Errorf("sched: allocator needs an RLFT, got %v", t.Spec)
	}
	return &Allocator{
		t:       t,
		granule: t.Spec.AllocationGranule(),
		freeRun: make([]bool, t.NumHosts()),
		jobs:    make(map[JobID]*Allocation),
	}, nil
}

// Granule returns the contention-free allocation unit.
func (a *Allocator) Granule() int { return a.granule }

// FreeHosts returns the number of unallocated end-ports.
func (a *Allocator) FreeHosts() int {
	n := 0
	for _, used := range a.freeRun {
		if !used {
			n++
		}
	}
	return n
}

// Alloc places a job of the given size. It prefers (in order): a
// granule-aligned contiguous block, any contiguous block, and finally a
// scatter of whatever is free. The Allocation records which guarantees
// the placement preserves (see Allocation).
func (a *Allocator) Alloc(size int) (*Allocation, error) {
	if size < 1 {
		return nil, fmt.Errorf("sched: job size %d", size)
	}
	if size > a.FreeHosts() {
		return nil, fmt.Errorf("sched: %d hosts requested, %d free", size, a.FreeHosts())
	}
	hosts := a.findAligned(size)
	aligned := hosts != nil
	if hosts == nil {
		hosts = a.findContiguous(size)
	}
	contiguous := hosts != nil
	if hosts == nil {
		hosts = a.scatter(size)
	}
	return a.place(hosts, contiguous, aligned, size)
}

// AllocAligned places a job only if a granule-aligned contiguous block
// exists, failing otherwise — the admission policy that guarantees both
// contention freedom and isolation (at the cost of queueing delay).
func (a *Allocator) AllocAligned(size int) (*Allocation, error) {
	if size < 1 {
		return nil, fmt.Errorf("sched: job size %d", size)
	}
	hosts := a.findAligned(size)
	if hosts == nil {
		return nil, fmt.Errorf("sched: no aligned block of %d hosts available", size)
	}
	return a.place(hosts, true, true, size)
}

func (a *Allocator) place(hosts []int, contiguous, aligned bool, size int) (*Allocation, error) {
	alloc := &Allocation{
		ID:             a.nextID,
		Hosts:          hosts,
		ContentionFree: contiguous && size%a.granule == 0,
		Isolated:       aligned && size%a.granule == 0,
	}
	a.nextID++
	for _, h := range hosts {
		a.freeRun[h] = true
	}
	a.jobs[alloc.ID] = alloc
	return alloc, nil
}

// Free releases a job's hosts.
func (a *Allocator) Free(id JobID) error {
	alloc, ok := a.jobs[id]
	if !ok {
		return fmt.Errorf("sched: unknown job %d", id)
	}
	for _, h := range alloc.Hosts {
		a.freeRun[h] = false
	}
	delete(a.jobs, id)
	return nil
}

// Jobs returns the live allocations in ID order.
func (a *Allocator) Jobs() []*Allocation {
	ids := make([]int, 0, len(a.jobs))
	for id := range a.jobs {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]*Allocation, 0, len(ids))
	for _, id := range ids {
		out = append(out, a.jobs[JobID(id)])
	}
	return out
}

// findAligned looks for a free contiguous block of `size` starting at a
// granule boundary.
func (a *Allocator) findAligned(size int) []int {
	n := len(a.freeRun)
	for start := 0; start+size <= n; start += a.granule {
		if a.runFree(start, size) {
			return mkRange(start, size)
		}
	}
	return nil
}

// findContiguous looks for any free contiguous block.
func (a *Allocator) findContiguous(size int) []int {
	n := len(a.freeRun)
	for start := 0; start+size <= n; start++ {
		if a.runFree(start, size) {
			return mkRange(start, size)
		}
	}
	return nil
}

// scatter gathers the lowest free hosts.
func (a *Allocator) scatter(size int) []int {
	out := make([]int, 0, size)
	for h := 0; h < len(a.freeRun) && len(out) < size; h++ {
		if !a.freeRun[h] {
			out = append(out, h)
		}
	}
	return out
}

func (a *Allocator) runFree(start, size int) bool {
	for h := start; h < start+size; h++ {
		if a.freeRun[h] {
			return false
		}
	}
	return true
}

func mkRange(start, size int) []int {
	out := make([]int, size)
	for i := range out {
		out[i] = start + i
	}
	return out
}
