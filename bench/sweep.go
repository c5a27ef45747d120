package main

import (
	"fmt"
	"math/rand"
	"time"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// sweepFixture holds the inputs of the Figure 3 / Table 3 pipeline (the
// orderings and sequences) and the walk oracle the compiled results are
// checked against. The pipeline itself is cold: every operation builds
// its own topology, tables and arena.
type sweepFixture struct {
	topoOrder []*order.Ordering // the one topology order
	random    []*order.Ordering // seeded random orders
	shift     cps.Sequence      // stride-sampled Shift
	recdbl    cps.Sequence
	oracle    *route.LFT // forwarding tables walked hop by hop
	flows     float64    // flows analysed by one operation
}

func buildSweep(o runOpts) (*sweepFixture, error) {
	tp, err := topo.Build(o.sz.sweepCluster)
	if err != nil {
		return nil, err
	}
	n := tp.NumHosts()
	fx := &sweepFixture{
		topoOrder: []*order.Ordering{order.Topology(n, nil)},
		oracle:    route.DModK(tp),
		recdbl:    cps.RecursiveDoubling(n),
	}
	for i := 0; i < o.sz.sweepOrders; i++ {
		fx.random = append(fx.random, order.Random(n, nil, o.seed*1000+int64(i)))
	}
	full := cps.Shift(n)
	var idx []int
	for s := 0; s < full.NumStages(); s += o.sz.sweepStride {
		idx = append(idx, s)
	}
	if fx.shift, err = mpi.SampleStages(full, idx); err != nil {
		return nil, err
	}
	for _, seq := range []cps.Sequence{fx.shift, fx.recdbl} {
		for s := 0; s < seq.NumStages(); s++ {
			fx.flows += float64(len(seq.Stage(s)) * (1 + len(fx.random)))
		}
	}
	return fx, nil
}

// sweepOut is one pipeline iteration's product and where its time went.
type sweepOut struct {
	compiled                             *route.Compiled
	topoShift, randShift, topoRD, randRD hsd.Sweep
	topoBuild, dmodk, compile, re        time.Duration
}

// pipeline runs one cold iteration: build, route, compile, replay.
func (fx *sweepFixture) pipeline(o runOpts, ln *lane, it int) (*sweepOut, error) {
	out := &sweepOut{}
	root := ln.begin(layerBench, "sweep.pipeline", it)
	defer ln.end(root)
	timed := func(layer, name string, into *time.Duration, fn func() error) error {
		s := ln.begin(layer, name, it)
		t0 := time.Now()
		err := fn()
		*into += time.Since(t0)
		ln.end(s)
		return err
	}
	var tp *topo.Topology
	var lft *route.LFT
	err := timed("topo", "topo.Build", &out.topoBuild, func() (err error) {
		tp, err = topo.Build(o.sz.sweepCluster)
		return err
	})
	if err != nil {
		return nil, err
	}
	_ = timed("route", "route.DModK", &out.dmodk, func() error {
		lft = route.DModK(tp)
		return nil
	})
	err = timed("route", "route.Compile", &out.compile, func() (err error) {
		out.compiled, err = route.Compile(lft)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, sw := range []struct {
		name   string
		orders []*order.Ordering
		seq    cps.Sequence
		into   *hsd.Sweep
	}{
		{"topology x shift", fx.topoOrder, fx.shift, &out.topoShift},
		{"random x shift", fx.random, fx.shift, &out.randShift},
		{"topology x recursive-doubling", fx.topoOrder, fx.recdbl, &out.topoRD},
		{"random x recursive-doubling", fx.random, fx.recdbl, &out.randRD},
	} {
		sw := sw
		err = timed("hsd", "hsd.SweepOrderingsParallel "+sw.name, &out.re, func() (err error) {
			*sw.into, err = hsd.SweepOrderingsParallel(out.compiled, sw.orders, sw.seq, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check holds the paper's claim: the topology order is contention free
// on every Shift stage (average of per-stage maxima exactly 1), and no
// random order is (every per-order average above 1). The topology order
// under Recursive-Doubling is swept, as Table 3 does, but 1944 is not a
// power of two and the paper claims nothing for it.
func (out *sweepOut) check() error {
	if s := out.topoShift; s.Min != 1 || s.Max != 1 {
		return fmt.Errorf("topology order under Shift: avg max HSD in [%g, %g], want exactly 1", s.Min, s.Max)
	}
	if out.randShift.Min <= 1 {
		return fmt.Errorf("a random order reached avg max HSD %g under Shift, want > 1", out.randShift.Min)
	}
	if out.randRD.Min <= 1 {
		return fmt.Errorf("a random order reached avg max HSD %g under Recursive-Doubling, want > 1", out.randRD.Min)
	}
	return nil
}

// stagePairs translates one stage's rank pairs to end-port pairs.
func stagePairs(seq cps.Sequence, s int, o *order.Ordering) [][2]int {
	st := seq.Stage(s)
	pairs := make([][2]int, len(st))
	for i, p := range st {
		pairs[i] = [2]int{o.HostOf[p.Src], o.HostOf[p.Dst]}
	}
	return pairs
}

// checkOracle replays a seeded sample of stages through the compiled
// arena and through a hop-by-hop walk of the forwarding tables; the two
// stage summaries must be equal.
func (fx *sweepFixture) checkOracle(o runOpts, c *route.Compiled) error {
	rng := rand.New(rand.NewSource(o.seed))
	fast, slow := hsd.NewAnalyzer(c), hsd.NewAnalyzer(fx.oracle)
	for i := 0; i < 8; i++ {
		ord := fx.random[rng.Intn(len(fx.random))]
		s := rng.Intn(fx.shift.NumStages())
		pairs := stagePairs(fx.shift, s, ord)
		got, err := fast.Stage(pairs)
		if err != nil {
			return err
		}
		want, err := slow.Stage(pairs)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("sampled stage %d under %s: compiled %+v, walk oracle %+v", s, ord.Label, got, want)
		}
	}
	return nil
}

// runSweep is the hsd-sweep1944 workload.
func runSweep(o runOpts, rec *recorder, c *checker) (map[string]sample, error) {
	m := map[string]sample{}
	fx, setupS, err := repeatSetup(o.sz, func() (*sweepFixture, error) { return buildSweep(o) },
		func(*sweepFixture) {})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setupS)

	ln := rec.lane("sweep")
	var topoMS, dmodkMS, compileMS, replayMS []float64
	st, err := timedLoop(o.budget(), o.sz.sweepWarm, 4, 1, func(it int) (time.Duration, error) {
		t0 := time.Now()
		out, err := fx.pipeline(o, ln, it)
		wall := time.Since(t0)
		if err != nil || it < o.sz.sweepWarm {
			return wall, err
		}
		topoMS = append(topoMS, ms(out.topoBuild))
		dmodkMS = append(dmodkMS, ms(out.dmodk))
		compileMS = append(compileMS, ms(out.compile))
		replayMS = append(replayMS, ms(out.re))
		c.op(out.check())
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	batchMetrics(m, st, fx.flows)
	reportTail(o.log, "one cold sweep pipeline", "ms", st.opMS)
	// No iteration's arena outlives it (the next one starts from a clean
	// heap), so one more untimed iteration supplies the arena that is
	// live while a researcher replays, and that the oracle checks.
	last, err := fx.pipeline(o, nil, -1)
	if err != nil {
		return nil, err
	}
	m["heap_live_mb"] = one(heapLiveMB())
	c.op(fx.checkOracle(o, last.compiled))

	// Layer rows come from the fastest operation, the one op_ms reports,
	// so they add up to it.
	best, n := fastest(st.opMS), len(st.opMS)
	m["topo.build_ms"] = sample{topoMS[best], n}
	m["route.dmodk_ms"] = sample{dmodkMS[best], n}
	m["route.compile_ms"] = sample{compileMS[best], n}
	m["hsd.replay_ms"] = sample{replayMS[best], n}
	m["hsd.flows_per_s"] = sample{fx.flows / (replayMS[best] / 1e3), n}
	m["route.arena_entries"] = one(float64(last.compiled.NumEntries()))

	if rec != nil {
		// One stage through a reused analyzer: the inner loop alone.
		a := hsd.NewAnalyzer(last.compiled)
		pairs := stagePairs(fx.shift, 1, fx.random[0])
		if _, err := a.Stage(pairs); err != nil {
			return nil, err
		}
		reps := o.sz.probeReps * 20
		a0, t0 := mallocs(), time.Now()
		for i := 0; i < reps; i++ {
			if _, err := a.Stage(pairs); err != nil {
				return nil, err
			}
		}
		m["hsd.stage_us"] = sample{us(time.Since(t0)) / float64(reps), reps}
		m["hsd.allocs_per_stage"] = sample{float64(mallocs()-a0) / float64(reps), reps}

		// A one-worker compile, so the allocation count belongs to one
		// goroutine and repeats.
		lft := route.DModK(fx.oracle.T)
		last = nil
		a0 = mallocs()
		if _, err := route.CompileParallel(lft, 1); err != nil {
			return nil, err
		}
		m["route.compile_allocs"] = one(float64(mallocs() - a0))
	}
	return m, nil
}
