package hsd

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// TestCompiledAnalyzerEquivalence asserts the compiled fast path produces
// bit-identical StageResults to the Walk-based analyzer across every
// routing x collective combination on small PGFTs, under both the
// topology and a random ordering.
func TestCompiledAnalyzerEquivalence(t *testing.T) {
	topos := []topo.PGFT{
		topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}),
		topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2}),
	}
	seqs := func(n int) []cps.Sequence {
		return []cps.Sequence{
			cps.Shift(n),
			cps.Ring(n),
			cps.Binomial(n),
			cps.RecursiveDoubling(n),
			cps.Dissemination(n),
			cps.Tournament(n),
		}
	}
	for _, g := range topos {
		tp := topo.MustBuild(g)
		n := tp.NumHosts()
		half := make([]int, 0, n/2)
		for h := 0; h < n; h += 2 {
			half = append(half, h)
		}
		partial, err := route.DModKActive(tp, half)
		if err != nil {
			t.Fatal(err)
		}
		routers := []route.Router{
			route.DModK(tp),
			route.DModKNaive(tp),
			route.MinHopRandom(tp, 42),
			route.NewSModK(tp),
			partial,
		}
		for _, rt := range routers {
			c, err := route.Compile(rt)
			if err != nil {
				t.Fatalf("%v %s: %v", g, rt.Label(), err)
			}
			job := n
			var active []int
			if rt == route.Router(partial) {
				job, active = len(half), half
			}
			orders := []*order.Ordering{
				order.Topology(n, active),
				order.Random(n, active, 7),
			}
			for _, seq := range seqs(job) {
				for oi, o := range orders {
					want, err := Analyze(rt, o, seq)
					if err != nil {
						t.Fatalf("%v %s %s: %v", g, rt.Label(), seq.Name(), err)
					}
					got, err := Analyze(c, o, seq)
					if err != nil {
						t.Fatalf("%v %s %s compiled: %v", g, rt.Label(), seq.Name(), err)
					}
					// The work count is the one field the two may differ
					// in: a router without an arena never climbs.
					if want.Climbed != 0 || got.Climbed > len(got.Stages) {
						t.Errorf("%v %s %s order %d: %d of %d stages climbed over the walk, %d over the arena",
							g, rt.Label(), seq.Name(), oi, want.Climbed, len(want.Stages), got.Climbed)
					}
					got.Climbed = 0
					if !reflect.DeepEqual(want, got) {
						t.Errorf("%v %s %s order %d: compiled report diverges\nwalk:     %+v\ncompiled: %+v",
							g, rt.Label(), seq.Name(), oi, want.Stages, got.Stages)
					}
				}
			}
		}
	}
}

// TestCompiledConcurrentHammer shares one compiled router between many
// goroutines, each driving its own analyses and sweeps. Run under
// -race (make race / CI) this proves the arena is safe for concurrent
// readers.
func TestCompiledConcurrentHammer(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	n := tp.NumHosts()
	c, err := route.Compile(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	seq := cps.Shift(n)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := order.Random(n, nil, int64(i))
			rep, err := Analyze(c, o, seq)
			if err != nil {
				errs <- err
				return
			}
			if rep.MaxHSD() < 1 {
				errs <- fmt.Errorf("goroutine %d: empty report", i)
				return
			}
			sw, err := SweepOrderingsParallel(c, []*order.Ordering{o, order.Topology(n, nil)}, cps.Ring(n), 2)
			if err != nil {
				errs <- err
				return
			}
			if sw.Min < 1 {
				errs <- fmt.Errorf("goroutine %d: empty sweep", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStageDoesNotAllocate guards the bulk path of the sweeps: a reused
// analyzer over a compiled arena reads head and tail views in place.
func TestStageDoesNotAllocate(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	n := tp.NumHosts()
	c, err := route.Compile(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	o := order.Random(n, nil, 3)
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{o.HostOf[i], o.HostOf[(i+5)%n]}
	}
	a := NewAnalyzer(c)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := a.Stage(pairs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Stage allocates %v times per call", allocs)
	}
}

// TestNewAnalyzerAllocs pins a climbing analyzer's set-up at 8
// allocations, the climb keys of both sides in one slab beside the dense
// up counters, and its climbing replay of a declared exchange or
// rotation at none.
func TestNewAnalyzerAllocs(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster1944)
	c, err := route.Compile(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { NewAnalyzer(c) }); allocs > 8 {
		t.Fatalf("NewAnalyzer allocates %v times on a climbing arena, want at most 8", allocs)
	}
	a, o := NewAnalyzer(c), order.Random(tp.NumHosts(), nil, 3)
	if a.climb == 0 {
		t.Fatal("no climbing replay on Cluster1944")
	}
	for _, sh := range []shape{{flows: 1024, once: true, xor: 8}, {flows: tp.NumHosts(), once: true, rot: 5}} {
		if allocs := testing.AllocsPerRun(20, func() { a.climbs(nil, sh, o) }); allocs != 0 {
			t.Fatalf("climbs of %+v allocates %v times per stage", sh, allocs)
		}
	}
}
