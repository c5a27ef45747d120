package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fattree/internal/cps"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// oneByOne is the oracle for SimulateAll: each case on a Network built
// for it alone, driven through netsim directly.
func oneByOne(t *testing.T, c Case) netsim.Stats {
	t.Helper()
	nw, err := netsim.New(c.Job.Route, c.Config)
	if err != nil {
		t.Fatal(err)
	}
	st, err := nw.Run(c.Job.AllMessages(c.Seq, c.Bytes), c.Mode)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// batchCases builds every combination of two jobs (topology and random
// order on the same tables), three sequences, the three modes and three
// calibrations, shuffled by seed.
func batchCases(t *testing.T, seed int64) []Case {
	t.Helper()
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	n := tp.NumHosts()
	lft := route.DModK(tp)
	var jobs []*Job
	for _, o := range []*order.Ordering{order.Topology(n, nil), order.Random(n, nil, seed)} {
		j, err := NewJob(lft, o)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	shift, err := SampleEvenly(cps.Shift(n), 4)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []netsim.Config
	for _, b := range []int{2, 4, 8} {
		c := netsim.DefaultConfig()
		c.BufferPackets = b
		cfgs = append(cfgs, c)
	}

	var cases []Case
	for _, j := range jobs {
		for _, seq := range []cps.Sequence{shift, cps.RecursiveDoubling(n), cps.Ring(n)} {
			for _, mode := range []netsim.Mode{netsim.Async, netsim.Barrier, netsim.Dependent} {
				for _, cfg := range cfgs {
					cases = append(cases, Case{Job: j, Seq: seq, Bytes: 24 << 10, Mode: mode, Config: cfg})
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cases), func(a, b int) { cases[a], cases[b] = cases[b], cases[a] })
	return cases
}

// TestSimulateAllMatchesOneByOne: whatever the worker count and the case
// order, a batch answers every case exactly as a fresh Network run on
// its own does.
func TestSimulateAllMatchesOneByOne(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		cases := batchCases(t, seed)
		want := make([]netsim.Stats, len(cases))
		for i, c := range cases {
			want[i] = oneByOne(t, c)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := simulateAll(cases, workers)
			if err != nil {
				t.Fatalf("seed %d, workers %d: %v", seed, workers, err)
			}
			for i := range cases {
				if !reflect.DeepEqual(got[i], want[i]) {
					c := cases[i]
					t.Errorf("seed %d, workers %d, case %d (%s, %v, buffers %d): batch %+v, one by one %+v",
						seed, workers, i, c.Seq.Name(), c.Mode, c.Config.BufferPackets, got[i], want[i])
				}
			}
		}
	}
}

// countingRouter counts the walks a simulation asks of it: a case that
// starts loads its messages, and loading walks their paths.
type countingRouter struct {
	route.Router
	walks atomic.Int64
}

func (c *countingRouter) Walk(src, dst int, visit func(topo.LinkID, bool)) error {
	c.walks.Add(1)
	return c.Router.Walk(src, dst, visit)
}

// TestSimulateAllErrors: on one worker a failing case stops the batch —
// no later case starts. On several, later cases may already be running,
// and the error returned is the lowest-index one among the cases that
// ran, whichever failed first in time.
func TestSimulateAllErrors(t *testing.T) {
	cases := batchCases(t, 3)[:12]
	noMTU := cases[4]
	noMTU.Config.MTU = 0
	noBuffers := cases[6]
	noBuffers.Config.BufferPackets = 0
	cases[4], cases[6] = noMTU, noBuffers

	const lowest = "MTU 0 outside"
	for _, workers := range []int{1, 2, 7} {
		counted := &countingRouter{Router: cases[0].Job.Route}
		later := &Job{Route: counted, Order: cases[0].Job.Order}
		run := append([]Case(nil), cases...)
		for i := 5; i < len(run); i++ {
			run[i].Job = later
		}
		for trial := 0; trial < 10; trial++ {
			st, err := simulateAll(run, workers)
			if err == nil || !strings.Contains(err.Error(), lowest) {
				t.Fatalf("workers %d: err = %v, want %q", workers, err, lowest)
			}
			if st != nil {
				t.Errorf("workers %d: stats returned beside an error", workers)
			}
		}
		if workers == 1 && counted.walks.Load() != 0 {
			t.Errorf("one worker: cases after the failing one walked %d paths", counted.walks.Load())
		}
	}
}

// TestSimulateAllAdaptiveOneWorker: cases routed through one
// route.Adaptive share its RNG, so the batch runs them in input order
// and draws exactly what a loop of SimulateMode calls draws.
func TestSimulateAllAdaptiveOneWorker(t *testing.T) {
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	n := tp.NumHosts()
	cfg := netsim.DefaultConfig()
	mkCases := func() []Case {
		j, err := NewJob(route.NewAdaptive(tp, 5), order.Topology(n, nil))
		if err != nil {
			t.Fatal(err)
		}
		var cases []Case
		for i := 0; i < 6; i++ {
			cases = append(cases, Case{Job: j, Seq: cps.Ring(n), Bytes: 16 << 10, Mode: netsim.Async, Config: cfg})
		}
		return cases
	}
	loop := mkCases()
	var want []netsim.Stats
	for _, c := range loop {
		st, err := c.Job.SimulateMode(c.Seq, c.Bytes, c.Mode, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, st)
	}
	got, err := simulateAll(mkCases(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adaptive batch diverged from the loop:\n%s", fmt.Sprint(got))
	}
}

// TestSimulateAllLongestFirst: on several workers the cases are handed out
// longest first (Bytes x stages, ties in input order) — here the reverse
// of the input — and the batch still answers in input order, and still
// returns the error of the first failing case in input order even when a
// later, longer one fails first.
func TestSimulateAllLongestFirst(t *testing.T) {
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	n := tp.NumHosts()
	j, err := NewJob(route.DModK(tp), order.Random(n, nil, 5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.DefaultConfig()
	var cases []Case
	for _, kib := range []int64{4, 8, 16, 32, 64} {
		cases = append(cases, Case{Job: j, Seq: cps.Shift(n), Bytes: kib << 10, Mode: netsim.Async, Config: cfg})
	}
	cases = append(cases, Case{Job: j, Seq: cps.Shift(n), Bytes: 64 << 10, Mode: netsim.Barrier, Config: cfg}) // a tie with case 4
	if got, want := handOut(cases, 2), []int{4, 5, 3, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-out on 2 workers %v, want %v", got, want)
	}
	if got, want := handOut(cases, 1), []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hand-out on 1 worker %v, want input order %v", got, want)
	}
	for _, workers := range []int{2, 7} {
		got, err := simulateAll(cases, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cases {
			if want := oneByOne(t, c); !reflect.DeepEqual(got[i], want) {
				t.Errorf("workers %d, case %d (%d bytes): batch %+v, one by one %+v", workers, i, c.Bytes, got[i], want)
			}
		}
	}

	failing := append([]Case(nil), cases...)
	failing[1].Config.MTU = 0           // handed out second to last
	failing[4].Config.BufferPackets = 0 // handed out first, fails first
	for _, workers := range []int{1, 2, 7} {
		st, err := simulateAll(failing, workers)
		if err == nil || !strings.Contains(err.Error(), "MTU 0 outside") || st != nil {
			t.Fatalf("workers %d: stats %v, err = %v, want case 1's MTU error", workers, st, err)
		}
	}
}
