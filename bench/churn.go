package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/fclient"
	"fattree/internal/fmgr"
	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// freshEvent is a poller telling the fault script that its client now
// holds a route set of a new epoch.
type freshEvent struct {
	client int
	set    *wire.RouteSetResp
	at     time.Time
}

// poller is one client polling JobRouteSet on an open schedule: a poll
// is due every pollEvery whether or not the previous one has returned,
// and its latency is counted from the due time, so a stall is billed to
// every poll it delays. Sample slices belong to the poller's goroutine
// until it has exited.
type poller struct {
	readUS    []float64 // due -> answer, polls served from the pinned set
	warmUS    []float64 // send -> answer of the same polls: service time alone
	refetchMS []float64 // send -> answer, polls that fetched a new epoch
	lateUS    []float64 // due -> send: how late the generator ran
	err       error
}

func (p *poller) run(cl *fclient.Client, id int, job, epoch uint64, every time.Duration, ln *lane,
	fresh chan<- freshEvent, stop <-chan struct{}) {
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		s := ln.begin("fclient", "fclient.JobRouteSet", k)
		rs, err := cl.JobRouteSet(job)
		ln.end(s)
		done := time.Now()
		if err == nil && rs.Epoch < epoch {
			err = fmt.Errorf("client %d: epoch went back from %d to %d", id, epoch, rs.Epoch)
		}
		if err != nil {
			if p.err == nil {
				p.err = err
			}
			continue
		}
		p.lateUS = append(p.lateUS, us(sent.Sub(due)))
		if rs.Epoch == epoch {
			p.readUS = append(p.readUS, us(done.Sub(due)))
			p.warmUS = append(p.warmUS, us(done.Sub(sent)))
			continue
		}
		epoch = rs.Epoch
		p.refetchMS = append(p.refetchMS, ms(done.Sub(sent)))
		select {
		case fresh <- freshEvent{id, rs, done}:
		case <-stop:
			return
		}
	}
}

// fabricLinks lists the switch-to-switch cables: failing one leaves
// every host routable.
func fabricLinks(tp *topo.Topology) []topo.LinkID {
	var out []topo.LinkID
	for _, l := range tp.Links {
		if l.Level >= 2 {
			out = append(out, l.ID)
		}
	}
	return out
}

// crossesLink checks a seeded 1-in-64 sample of a route set's paths
// against a dead link.
func crossesLink(rs *wire.RouteSetResp, dead topo.LinkID, seed int64, op int) error {
	for j, p := range rs.Pairs {
		if !sampled(seed, op, j) {
			continue
		}
		for _, h := range p.Hops {
			if route.EntryLink(route.PathEntry(h)) == dead {
				return fmt.Errorf("epoch %d: path %d->%d crosses failed link %d", rs.Epoch, p.Src, p.Dst, dead)
			}
		}
	}
	return nil
}

// runChurn is the fault-churn324 workload.
func runChurn(o runOpts, rec *recorder, c *checker) (map[string]sample, error) {
	m := map[string]sample{}
	d, err := startDaemons(o, m)
	if err != nil {
		return nil, err
	}
	defer d.close()

	links := fabricLinks(d.tp)
	if len(links) == 0 {
		return nil, errors.New("topology has no switch-to-switch link to fail")
	}
	rng := rand.New(rand.NewSource(o.seed))
	var script []topo.LinkID // link of the k-th fail/revive pair

	// One buffered slot per client: a client reports one fresh set per
	// epoch and the script waits for all of them before the next fault.
	fresh := make(chan freshEvent, loadClients)
	stop := make(chan struct{})
	pollers := make([]*poller, loadClients)
	lanes := make([]*lane, loadClients)
	epoch0 := d.m.Current().Epoch // the clients were warmed on it during set-up
	var wg sync.WaitGroup
	for i := range pollers {
		pollers[i] = &poller{}
		lanes[i] = rec.lane(fmt.Sprintf("client-%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pollers[i].run(d.clients[i], i, d.job, epoch0, o.sz.pollEvery, lanes[i], fresh, stop)
		}(i)
	}

	ln := rec.lane("fault-script")
	var nextSeq uint64
	var toSwapMS, rerouteMS, validateMS, waitMS []float64
	const warmOps = 2 // one fail/revive pair
	// Operations alternate fail/revive, so the loop may stop only after
	// a revive: the fabric must end whole.
	st, err := timedLoop(o.budget(), warmOps, 6, 2, func(op int) (time.Duration, error) {
		for len(script) <= op/2 {
			script = append(script, links[rng.Intn(len(links))])
		}
		link, failing := script[op/2], op%2 == 0
		pre := d.m.Current().Epoch
		var fail, revive []topo.LinkID
		if failing {
			fail = []topo.LinkID{link}
		} else {
			revive = []topo.LinkID{link}
		}
		t0 := time.Now()
		if _, err := d.m.InjectFaults(fail, revive, 0); err != nil {
			return 0, err
		}
		injected := time.Now()
		sets := make([]*wire.RouteSetResp, loadClients)
		var last time.Time
		timeout := time.After(20 * time.Second)
		for got := 0; got < loadClients; {
			select {
			case ev := <-fresh:
				if ev.set.Epoch > pre && sets[ev.client] == nil {
					sets[ev.client] = ev.set
					got++
					if ev.at.After(last) {
						last = ev.at
					}
				}
			case <-timeout:
				return 0, fmt.Errorf("clients did not converge past epoch %d", pre)
			}
		}
		swapped, ok := d.swapTime(pre + 1)
		if !ok {
			return 0, fmt.Errorf("no swap recorded for epoch %d", pre+1)
		}
		root := ln.add(layerBench, "churn.op", op, -1, t0, last)
		ln.add("fmgr", "Manager.InjectFaults", op, root, t0, injected)
		ln.add("fmgr", "debounce+reroute+validate+swap", op, root, injected, swapped)
		ln.add("fclient", "probe+refetch, slowest client", op, root, swapped, last)

		// Everything below is outside the operation's timed interval.
		var opErr error
		if failing {
			for _, rs := range sets {
				if err := crossesLink(rs, link, o.seed, op); err != nil {
					opErr = err
				}
			}
		}
		// The journal's own account of this epoch's rebuild.
		recs, _ := d.m.EventsSince(nextSeq, 0)
		var reroute, validate float64
		for _, r := range recs {
			nextSeq = r.Seq + 1
			if r.Epoch != pre+1 {
				continue
			}
			switch r.Kind {
			case fmgr.EvReroute:
				reroute = float64(r.DurationUS) / 1e3
			case fmgr.EvValidate:
				validate = float64(r.DurationUS) / 1e3
			}
			if r.Outcome == fmgr.OutcomeError {
				opErr = fmt.Errorf("journal: %s of epoch %d failed: %s", r.Kind, r.Epoch, r.Detail)
			}
		}
		if op >= warmOps {
			c.op(opErr)
			toSwap := ms(swapped.Sub(t0))
			toSwapMS = append(toSwapMS, toSwap)
			rerouteMS = append(rerouteMS, reroute)
			validateMS = append(validateMS, validate)
			waitMS = append(waitMS, toSwap-reroute-validate)
		}
		return last.Sub(t0), nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}

	n := len(st.opMS)
	m["op_ms"] = median(st.opMS)
	m["work_per_s"] = sample{float64(n*loadClients) / st.wall.Seconds(), n}
	m["host.cpu_ms_per_op"] = sample{ms(st.cpu) / float64(n), n}
	m["churn.fresh_p90_ms"] = pct(st.opMS, 90)
	m["heap_live_mb"] = one(heapLiveMB())

	var read, warm, refetch, late []float64
	regressions := int64(0)
	for i, p := range pollers {
		if p.err != nil {
			c.op(fmt.Errorf("poller %d: %w", i, p.err))
		}
		read = append(read, p.readUS...)
		warm = append(warm, p.warmUS...)
		refetch = append(refetch, p.refetchMS...)
		late = append(late, p.lateUS...)
		regressions += d.clients[i].EpochRegressions()
	}
	m["churn.read_p90_us"] = pct(read, 90)
	reportTail(o.log, "fault -> every client fresh", "ms", st.opMS)
	reportTail(o.log, "warm poll, from its due time", "us", read)
	reportTail(o.log, "poll sent late by", "us", late)
	m["fclient.warm_hit_us"] = median(warm)
	m["fclient.refetch_ms"] = median(refetch)
	m["loadgen.late_p90_us"] = pct(late, 90)
	m["fclient.epoch_regressions"] = one(float64(regressions))
	// Each client should fetch each epoch exactly once: one per operation,
	// warm-ups included.
	m["fclient.refetches_per_epoch"] = sample{float64(len(refetch)) / float64((n+warmOps)*loadClients), len(refetch)}
	m["fmgr.inject_to_swap_ms"] = median(toSwapMS)
	m["fmgr.reroute_ms"] = median(rerouteMS)
	m["fmgr.validate_ms"] = median(validateMS)
	m["fmgr.debounce_wait_ms"] = median(waitMS)

	var end error
	if regressions != 0 {
		end = fmt.Errorf("%d epoch regressions", regressions)
	} else if f := d.m.Current().FailedLinks; len(f) != 0 {
		end = fmt.Errorf("fabric ends with failed links %v", f)
	}
	c.op(end)

	if rec != nil {
		if m["fclient.probe_rtt_us"], err = probeEpochRTT(d.clients[0], o.sz.probeReps*20); err != nil {
			return nil, err
		}
		if err := replayLayers(o, d, script, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// replayLayers pushes the script's one-link fault sets straight through
// the layers a snapshot rebuild and a client refetch are made of, one
// public function at a time: what the daemon does inside its event
// loop, where the benchmark cannot wrap it.
func replayLayers(o runOpts, d *daemon, script []topo.LinkID, m map[string]sample) error {
	if len(script) > o.sz.probeReps {
		script = script[:o.sz.probeReps]
	}
	engines := map[string]engine.Engine{}
	for _, name := range []string{"dmodk", "fault-resilient"} {
		e, err := engine.Build(name, d.tp, engine.Options{})
		if err != nil {
			return err
		}
		engines[name] = e
	}
	hosts := d.tp.NumHosts()
	t := map[string][]float64{}
	timeIt := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		t[name] = append(t[name], ms(time.Since(t0)))
		return err
	}
	var frameBytes, decodeAllocs float64
	for _, link := range script {
		fs := fabric.NewFaultSet(d.tp)
		fs.Fail(link)
		for name, e := range engines {
			if err := timeIt("engine.tables_ms."+name, func() error { _, err := e.Tables(fs); return err }); err != nil {
				return err
			}
		}
		var lft *route.LFT
		var rr fabric.RerouteResult
		var compiled *route.Compiled
		err := timeIt("fabric.route_around_ms", func() (err error) { lft, rr, err = fs.RouteAround(); return err })
		if err == nil {
			err = timeIt("route.compile_lenient_ms", func() (err error) { compiled, err = route.CompileLenient(lft); return err })
		}
		if err != nil {
			return err
		}
		dead := make([]bool, hosts)
		for _, h := range rr.UnroutableHosts {
			dead[h] = true
		}
		if err := timeIt("invariant.lenient_arena_ms", func() error {
			return invariant.LenientArena(d.tp, compiled, func(j int) bool { return dead[j] })
		}); err != nil {
			return err
		}
		// The job's whole ordered pair set, as the daemon freezes it.
		resp := &wire.RouteSetResp{Epoch: 1, Engine: "dmodk", Routing: compiled.Label()}
		for s := 0; s < hosts; s++ {
			for dst := 0; dst < hosts; dst++ {
				if s == dst {
					continue
				}
				pr := wire.PairRoute{Src: uint32(s), Dst: uint32(dst)}
				if path, err := compiled.PackedPath(s, dst); err == nil {
					pr.OK = true
					pr.Hops = make([]uint32, len(path))
					for i, e := range path {
						pr.Hops[i] = uint32(e)
					}
				}
				resp.Pairs = append(resp.Pairs, pr)
			}
		}
		var frame []byte
		if err := timeIt("wire.encode_job_frame_ms", func() (err error) {
			frame, err = wire.AppendFrameChecked(nil, resp)
			return err
		}); err != nil {
			return err
		}
		frameBytes = float64(len(frame))
		a0 := mallocs()
		if err := timeIt("wire.decode_job_frame_ms", func() error {
			typ, payload, err := wire.ReadFrame(bytes.NewReader(frame))
			if err != nil {
				return err
			}
			_, err = wire.DecodePayload(typ, payload)
			return err
		}); err != nil {
			return err
		}
		decodeAllocs = float64(mallocs() - a0)
	}
	for name, xs := range t {
		m[name] = median(xs)
	}
	m["wire.job_frame_bytes"] = one(frameBytes)
	m["wire.decode_job_frame_allocs"] = one(decodeAllocs)
	return nil
}
