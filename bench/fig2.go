package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"fattree/internal/cps"
	"fattree/internal/des"
	"fattree/internal/exp"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// fig2Fixture is everything the Figure 2 reproduction needs before the
// first packet moves, plus how long each piece took to build.
type fig2Fixture struct {
	job    *mpi.Job
	shift  cps.Sequence
	recdbl cps.Sequence
	cfg    netsim.Config

	topoBuild, dmodk, newJob time.Duration
}

func buildFig2(o runOpts) (*fig2Fixture, error) {
	fx := &fig2Fixture{cfg: netsim.DefaultConfig()}
	t0 := time.Now()
	tp, err := topo.Build(o.sz.fig2Cluster)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	lft := route.DModK(tp)
	t2 := time.Now()
	n := tp.NumHosts()
	fx.job, err = mpi.NewJob(lft, order.Random(n, nil, o.seed))
	if err != nil {
		return nil, err
	}
	fx.topoBuild, fx.dmodk, fx.newJob = t1.Sub(t0), t2.Sub(t1), time.Since(t2)

	// Shift sampled to evenly spaced stages, exactly as exp.Figure2 does.
	fx.shift = cps.Shift(n)
	if k := o.sz.fig2ShiftStages; k > 0 && k < fx.shift.NumStages() {
		idx := make([]int, k)
		step := fx.shift.NumStages() / k
		for i := range idx {
			idx[i] = i * step
		}
		if fx.shift, err = mpi.SampleStages(fx.shift, idx); err != nil {
			return nil, err
		}
	}
	fx.recdbl = cps.RecursiveDoubling(n)
	return fx, nil
}

// simSig is what must repeat exactly from one reproduction to the next:
// the simulated statistics, which no host-speed change may move.
type simSig struct {
	Events   uint64
	Duration des.Time
	Bytes    int64
}

// reproduce runs one full Figure 2 reproduction and returns its table
// rows, the per-simulation signatures and the host time spent inside
// Job.Simulate.
func (fx *fig2Fixture) reproduce(o runOpts, ln *lane, it int) (rows [][]string, sigs []simSig, inSim time.Duration, err error) {
	root := ln.begin(layerBench, "fig2.reproduction", it)
	defer ln.end(root)
	sim := func(seq cps.Sequence, size int64) (netsim.Stats, error) {
		s := ln.begin("netsim", "mpi.Job.Simulate "+seq.Name(), it)
		t0 := time.Now()
		st, err := fx.job.Simulate(seq, size, false, fx.cfg)
		inSim += time.Since(t0)
		ln.end(s)
		sigs = append(sigs, simSig{st.Events, st.Duration, st.BytesDelivered})
		return st, err
	}
	for _, size := range o.sz.fig2Bytes {
		sShift, err := sim(fx.shift, size)
		if err != nil {
			return nil, nil, 0, err
		}
		sRD, err := sim(fx.recdbl, size)
		if err != nil {
			return nil, nil, 0, err
		}
		rows = append(rows, []string{
			fmt.Sprint(size),
			fmt.Sprintf("%.3f", fx.job.NormalizedBandwidth(sShift, fx.cfg)),
			fmt.Sprintf("%.3f", fx.job.NormalizedBandwidth(sRD, fx.cfg)),
		})
	}
	return rows, sigs, inSim, nil
}

// runFig2 is the fig2-sim324 workload: the same steps as exp.Figure2 on
// the 324-host cluster, one reproduction per operation.
func runFig2(o runOpts, rec *recorder, c *checker) (map[string]sample, error) {
	m := map[string]sample{}
	var topoMS, dmodkMS, newJobMS []float64
	fx, setupS, err := repeatSetup(o.sz, func() (*fig2Fixture, error) {
		fx, err := buildFig2(o)
		if err == nil {
			topoMS = append(topoMS, ms(fx.topoBuild))
			dmodkMS = append(dmodkMS, ms(fx.dmodk))
			newJobMS = append(newJobMS, ms(fx.newJob))
		}
		return fx, err
	}, func(*fig2Fixture) {})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = median(setupS)
	m["topo.build_ms"] = median(topoMS)
	m["route.dmodk_ms"] = median(dmodkMS)
	m["mpi.newjob_ms"] = median(newJobMS)

	// The reference table, outside the timed region.
	want, err := exp.Figure2(exp.Figure2Opts{
		Cluster:     o.sz.fig2Cluster,
		Sizes:       o.sz.fig2Bytes,
		ShiftStages: o.sz.fig2ShiftStages,
		Seed:        o.seed,
		Config:      netsim.DefaultConfig(),
	})
	if err != nil {
		return nil, fmt.Errorf("exp.Figure2 reference: %w", err)
	}

	ln := rec.lane("fig2")
	var first []simSig
	var simMS []float64
	st, err := timedLoop(o.budget(), o.sz.fig2Warm, 5, 1, func(it int) (time.Duration, error) {
		t0 := time.Now()
		rows, sigs, inSim, err := fx.reproduce(o, ln, it)
		wall := time.Since(t0)
		if err != nil || it < o.sz.fig2Warm {
			return wall, err
		}
		simMS = append(simMS, ms(inSim))
		if first == nil {
			first = sigs
		}
		switch {
		case !reflect.DeepEqual(sigs, first):
			c.op(fmt.Errorf("fig2 iteration %d: simulated statistics differ from the first iteration", it))
		case !reflect.DeepEqual(rows, want.Rows):
			c.op(fmt.Errorf("fig2 iteration %d: table %v differs from exp.Figure2 %v", it, rows, want.Rows))
		default:
			c.op(nil)
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	var events, simNS, bytes float64
	for _, s := range first {
		events += float64(s.Events)
		simNS += float64(s.Duration) / float64(des.Nanosecond)
		bytes += float64(s.Bytes)
	}
	batchMetrics(m, st, events)
	reportTail(o.log, "one Figure 2 reproduction", "ms", st.opMS)
	m["heap_live_mb"] = one(heapLiveMB())
	// Layer rows of a batch workload come from the fastest operation, the
	// one op_ms reports, so they add up to it.
	inSim := simMS[fastest(st.opMS)]
	m["netsim.run_ms"] = sample{inSim, len(simMS)}
	m["netsim.ns_per_event"] = sample{inSim * 1e6 / events, len(simMS)}
	m["netsim.events"] = one(events)
	m["netsim.sim_duration_ns"] = one(simNS)
	m["netsim.bytes_delivered"] = one(bytes)

	if rec != nil {
		// One more reproduction with nothing else running, for its
		// allocation count (sequential event loop: one goroutine).
		a0 := mallocs()
		_, sigs, _, err := fx.reproduce(o, nil, -1)
		if err != nil {
			return nil, err
		}
		m["netsim.allocs_per_run"] = one(float64(mallocs()-a0) / float64(len(sigs)))
		m["des.ns_per_event"] = probeScheduler(o)
	}
	return m, nil
}

// probeScheduler times the bare event queue: a standing population of
// pending events, each pop rescheduling itself a seeded distance ahead.
func probeScheduler(o runOpts) sample {
	const pending = 1024
	rng := rand.New(rand.NewSource(o.seed))
	gaps := make([]des.Time, 4096)
	for i := range gaps {
		gaps[i] = des.Time(1+rng.Intn(2000)) * des.Nanosecond
	}
	var perEvent []float64
	for rep := 0; rep < 5; rep++ {
		s := des.NewScheduler()
		for i := 0; i < pending; i++ {
			s.AtEvent(gaps[i], 1, int32(i), 0, 0)
		}
		t0 := time.Now()
		for i := 0; i < o.sz.desEvents; i++ {
			kind, a, _, _, _ := s.NextEvent()
			s.AtEvent(s.Now()+gaps[i&(len(gaps)-1)], kind, a, 0, 0)
		}
		perEvent = append(perEvent, float64(time.Since(t0).Nanoseconds())/float64(o.sz.desEvents))
	}
	return median(perEvent)
}
