package invariant

import (
	"math/rand"
	"slices"
	"testing"

	"fattree/internal/fabric"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// FuzzFaultCompileLenient drives the fault-injection → reroute →
// lenient-compile pipeline with fuzzed fault patterns and asserts the
// full routing invariant group on the result: broken pairs exactly the
// cut sources and refused tails, arena/table equivalence, up*/down*
// shape, minimality and no dead-link crossings. The repair the daemon
// runs — fabric.Repair of the healthy D-Mod-K tables, which re-walks
// only the columns the faults touch — must serve that from-scratch
// arena pair for pair. Any violation is a real routing or compile bug.
func FuzzFaultCompileLenient(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(3), uint8(2))
	f.Add(int64(-9), uint8(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, faults, topoSel uint8) {
		var g topo.PGFT
		switch topoSel % 3 {
		case 0:
			g = topo.MustPGFT(2, []int{4, 8}, []int{1, 4}, []int{1, 1}) // RLFT2(4,8)
		case 1:
			g, _ = topo.KAryNTree(2, 3)
		default:
			g = topo.MustPGFT(3, []int{2, 2, 2}, []int{1, 2, 2}, []int{1, 1, 1}) // XGFT
		}
		tp := topo.MustBuild(g)
		fs := fabric.NewFaultSet(tp)
		if err := fs.FailRandomFabricLinksRand(int(faults)%4, rand.New(rand.NewSource(seed))); err != nil {
			t.Skip()
		}
		if seed%2 == 0 {
			// Also cut one host uplink, so the unroutable-host contract
			// is exercised.
			j := int((uint64(seed) >> 1) % uint64(tp.NumHosts()))
			fs.Fail(tp.Ports[tp.Host(j).Up[0]].Link)
		}
		lft, res, err := fs.RouteAround()
		if err != nil {
			t.Fatalf("RouteAround: %v", err)
		}
		c, err := route.CompileLenient(lft)
		if err != nil {
			t.Fatalf("CompileLenient: %v", err)
		}
		unroutable := make(map[int]bool, len(res.UnroutableHosts))
		for _, j := range res.UnroutableHosts {
			unroutable[j] = true
		}
		isUnroutable := func(j int) bool { return unroutable[j] }
		if err := LenientArena(tp, c, isUnroutable); err != nil {
			t.Fatalf("LenientArena rejects the rerouted arena: %v", err)
		}
		in := NewInstance(tp, c, nil)
		in.Alive = fs.Alive
		in.Unroutable = isUnroutable
		checks, err := Select("route")
		if err != nil {
			t.Fatal(err)
		}
		if rep := Run(in, checks); !rep.Pass {
			t.Fatalf("%v with %d faults: %v", g, fs.Failed(), rep.FailedNames())
		}
		healthy, err := fabric.Healthy(route.DModK(tp))
		if err != nil {
			t.Fatal(err)
		}
		tb, err := fs.Repair(healthy, nil)
		if err != nil {
			t.Fatalf("Repair: %v", err)
		}
		if tb.Compiled.NumBroken() != c.NumBroken() {
			t.Fatalf("%v with %d faults: the repair breaks %d pairs, the rebuild %d", g, fs.Failed(), tb.Compiled.NumBroken(), c.NumBroken())
		}
		var want, got []route.PathEntry
		for src := 0; src < tp.NumHosts(); src++ {
			for dst := 0; dst < tp.NumHosts(); dst++ {
				var errW, errG error
				want, errW = c.AppendPath(want[:0], src, dst)
				got, errG = tb.Compiled.AppendPath(got[:0], src, dst)
				if c.Broken(src, dst) != tb.Compiled.Broken(src, dst) || (errW == nil) != (errG == nil) || !slices.Equal(want, got) {
					t.Fatalf("%v with %d faults, %d->%d: the repair serves %v (%v), the rebuild %v (%v)", g, fs.Failed(), src, dst, got, errG, want, errW)
				}
			}
		}
	})
}
