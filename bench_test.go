package fattree_test

// One benchmark per table/figure of the paper's evaluation, plus
// microbenchmarks of the load-bearing inner loops. The per-figure benches
// run the experiment harness at reduced scale so `go test -bench=.`
// finishes in minutes; cmd/ftbench reproduces the full paper scale.

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"fattree/internal/cps"
	"fattree/internal/des"
	"fattree/internal/exp"
	"fattree/internal/fabric"
	"fattree/internal/fmgr"
	"fattree/internal/hsd"
	"fattree/internal/invariant"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/obs"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/sched"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

func render(b *testing.B, t *exp.Table, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if b.N == 1 {
		// Print the regenerated artifact once per bench run.
		b.Log("\n" + renderString(b, t))
	}
}

func renderString(b *testing.B, t *exp.Table) string {
	b.Helper()
	var sb stringWriter
	if err := t.Render(&sb); err != nil {
		b.Fatal(err)
	}
	return string(sb)
}

type stringWriter []byte

func (s *stringWriter) Write(p []byte) (int, error) {
	*s = append(*s, p...)
	return len(p), nil
}

var _ io.Writer = (*stringWriter)(nil)

// BenchmarkFigure1 regenerates Figure 1 (routing-aware vs random order,
// dst = src+4 mod 16).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.Figure1(5)
		render(b, t, err)
	}
}

// BenchmarkFigure2 regenerates Figure 2 (normalized bandwidth vs message
// size for Shift and Recursive-Doubling under random order).
func BenchmarkFigure2(b *testing.B) {
	o := exp.DefaultFigure2Opts()
	o.Cluster = topo.Cluster324
	o.Sizes = []int64{8 << 10, 64 << 10, 512 << 10}
	o.ShiftStages = 4
	for i := 0; i < b.N; i++ {
		t, err := exp.Figure2(o)
		render(b, t, err)
	}
}

// BenchmarkFigure3 regenerates Figure 3 (average max HSD vs cluster size
// for the six collectives under 25 random orders).
func BenchmarkFigure3(b *testing.B) {
	o := exp.Figure3Opts{
		Clusters:    []topo.PGFT{topo.Cluster128, topo.Cluster324},
		Seeds:       10,
		ShiftStride: 5,
	}
	for i := 0; i < b.N; i++ {
		t, err := exp.Figure3(o)
		render(b, t, err)
	}
}

// BenchmarkTable3 regenerates Table 3 (proposed routing+order HSD = 1 on
// full and partial trees; random-ranking comparison column).
func BenchmarkTable3(b *testing.B) {
	o := exp.Table3Opts{
		Cases: []exp.Table3Case{
			{Name: "RLFT2-128 full", Cluster: topo.Cluster128, Drop: 0, Seed: 1},
			{Name: "RLFT2-128 Cont.-8", Cluster: topo.Cluster128, Drop: 8, Seed: 1},
			{Name: "RLFT2-324 full", Cluster: topo.Cluster324, Drop: 0, Seed: 1},
			{Name: "RLFT2-324 Cont.-18", Cluster: topo.Cluster324, Drop: 18, Seed: 1},
		},
		RandomSeeds: 3,
		ShiftStride: 3,
	}
	for i := 0; i < b.N; i++ {
		t, err := exp.Table3(o)
		render(b, t, err)
	}
}

// BenchmarkRingAdversarial regenerates the Section II adversarial-order
// measurement (the 7.1% bandwidth case).
func BenchmarkRingAdversarial(b *testing.B) {
	o := exp.RingOpts{Cluster: topo.Cluster324, Bytes: 64 << 10, Config: netsim.DefaultConfig()}
	for i := 0; i < b.N; i++ {
		t, err := exp.RingAdversarial(o)
		render(b, t, err)
	}
}

// BenchmarkContentionFree regenerates the Section VII verification (full
// bandwidth, cut-through latency under the proposed configuration).
func BenchmarkContentionFree(b *testing.B) {
	o := exp.CFOpts{Cluster: topo.Cluster324, Bytes: 64 << 10, ShiftStages: 4, Config: netsim.DefaultConfig()}
	for i := 0; i < b.N; i++ {
		t, err := exp.ContentionFree(o)
		render(b, t, err)
	}
}

// BenchmarkWrapAblation regenerates the partial-tree wrap-around study.
func BenchmarkWrapAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.WrapAblation(topo.Cluster128, 2)
		render(b, t, err)
	}
}

// BenchmarkRoutingAblation regenerates the routing-choice ablation.
func BenchmarkRoutingAblation(b *testing.B) {
	g := topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2})
	for i := 0; i < b.N; i++ {
		t, err := exp.RoutingAblation(g)
		render(b, t, err)
	}
}

// BenchmarkBidirAblation regenerates the flat-vs-topology-aware
// recursive-doubling ablation.
func BenchmarkBidirAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.BidirAblation(topo.Cluster324)
		render(b, t, err)
	}
}

// --- Microbenchmarks of the inner loops ---

// BenchmarkBuildTopology1944 measures graph construction of the paper's
// 1944-node cluster.
func BenchmarkBuildTopology1944(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := topo.Build(topo.Cluster1944); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDModK1944 measures forwarding-table computation at paper
// scale (270 switches x 1944 destinations).
func BenchmarkDModK1944(b *testing.B) {
	t := topo.MustBuild(topo.Cluster1944)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.DModK(t)
	}
}

// BenchmarkHSDShiftStage1944 measures one analytic stage: 1944 flows
// traced over 6 hops each.
func BenchmarkHSDShiftStage1944(b *testing.B) {
	t := topo.MustBuild(topo.Cluster1944)
	lft := route.DModK(t)
	a := hsd.NewAnalyzer(lft)
	n := t.NumHosts()
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{i, (i + 5) % n}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Stage(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimRingStage324 measures the packet simulator on one full
// Ring stage (324 messages of 64 KiB, ~65k packets).
func BenchmarkNetsimRingStage324(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(t)
	nw, err := netsim.New(lft, netsim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := t.NumHosts()
	msgs := make([]netsim.Message, n)
	for i := range msgs {
		msgs[i] = netsim.Message{Src: i, Dst: (i + 1) % n, Bytes: 64 << 10}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Run(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPSShiftStage measures stage materialization of the Shift.
func BenchmarkCPSShiftStage(b *testing.B) {
	s := cps.Shift(1944)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Stage(i % s.NumStages())
	}
}

// BenchmarkTopoAwareBuild1944 measures construction of the Section VI
// sequence at paper scale.
func BenchmarkTopoAwareBuild1944(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cps.TopoAwareRecursiveDoubling(topo.Cluster1944.M); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderingAdversarial measures the adversarial-order
// construction.
func BenchmarkOrderingAdversarial(b *testing.B) {
	t := topo.MustBuild(topo.Cluster1944)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := order.Adversarial(t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJobAnalyzeRecDbl measures a full analytic run of recursive
// doubling on the 324-node cluster.
func BenchmarkJobAnalyzeRecDbl(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	job, err := mpi.NewContentionFreeJob(t, nil)
	if err != nil {
		b.Fatal(err)
	}
	seq := cps.RecursiveDoubling(t.NumHosts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.Analyze(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiJob regenerates the multi-job composition experiment.
func BenchmarkMultiJob(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.MultiJob(topo.Cluster324)
		render(b, t, err)
	}
}

// BenchmarkFaultResilience regenerates the degraded-fabric study.
func BenchmarkFaultResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.FaultResilience(topo.Cluster128, 2)
		render(b, t, err)
	}
}

// BenchmarkBufferAblation regenerates the input-buffer depth study.
func BenchmarkBufferAblation(b *testing.B) {
	o := exp.BufferOpts{
		Cluster: topo.Cluster128,
		Bytes:   64 << 10,
		Buffers: []int{1, 8, 32},
		Stages:  3,
		Seed:    1,
	}
	for i := 0; i < b.N; i++ {
		t, err := exp.BufferAblation(o)
		render(b, t, err)
	}
}

// BenchmarkFabricReroute measures fault-aware table recomputation.
func BenchmarkFabricReroute(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := fabric.NewFaultSet(t)
		if err := fs.FailRandomFabricLinks(4, int64(i)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := fs.RouteAround(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedAllocFree measures the allocator's steady-state churn.
func BenchmarkSchedAllocFree(b *testing.B) {
	t := topo.MustBuild(topo.Cluster1944)
	a, err := sched.New(t)
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

// BenchmarkAdaptiveComparison regenerates the adaptive-vs-proactive
// routing comparison.
func BenchmarkAdaptiveComparison(b *testing.B) {
	o := exp.AdaptiveOpts{Cluster: topo.Cluster128, Bytes: 64 << 10, Seed: 1}
	for i := 0; i < b.N; i++ {
		t, err := exp.AdaptiveComparison(o)
		render(b, t, err)
	}
}

// BenchmarkJitterSensitivity regenerates the OS-jitter study.
func BenchmarkJitterSensitivity(b *testing.B) {
	o := exp.JitterOpts{
		Cluster: topo.Cluster128,
		Bytes:   64 << 10,
		Jitters: []des.Time{0, 20 * des.Microsecond, 100 * des.Microsecond},
		Stages:  3,
		Seed:    1,
	}
	for i := 0; i < b.N; i++ {
		t, err := exp.JitterSensitivity(o)
		render(b, t, err)
	}
}

// BenchmarkHSDAnalyzeSequential measures the single-threaded full-Shift
// analysis on the 324-node cluster.
func BenchmarkHSDAnalyzeSequential(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(t)
	o := order.Topology(t.NumHosts(), nil)
	seq := cps.Shift(t.NumHosts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hsd.Analyze(lft, o, seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHSDAnalyzeParallel measures the worker-pool variant on the
// same job; compare against BenchmarkHSDAnalyzeSequential for the
// speedup.
func BenchmarkHSDAnalyzeParallel(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(t)
	o := order.Topology(t.NumHosts(), nil)
	seq := cps.Shift(t.NumHosts())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hsd.AnalyzeParallel(lft, o, seq, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaperAblation regenerates the oversubscription study.
func BenchmarkTaperAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.TaperAblation()
		render(b, t, err)
	}
}

// BenchmarkPatternSweep regenerates the synthetic-pattern sweep.
func BenchmarkPatternSweep(b *testing.B) {
	o := exp.PatternOpts{Cluster: topo.Cluster128, Bytes: 32 << 10, Seed: 1}
	for i := 0; i < b.N; i++ {
		t, err := exp.PatternSweep(o)
		render(b, t, err)
	}
}

// BenchmarkCollectiveLatency regenerates the schedule-latency study.
func BenchmarkCollectiveLatency(b *testing.B) {
	o := exp.LatencyOpts{Cluster: topo.Cluster324, Sizes: []int64{2 << 10, 128 << 10}}
	for i := 0; i < b.N; i++ {
		t, err := exp.CollectiveLatency(o)
		render(b, t, err)
	}
}

// BenchmarkSemanticsComparison regenerates the progression-semantics
// study.
func BenchmarkSemanticsComparison(b *testing.B) {
	o := exp.SemanticsOpts{Cluster: topo.Cluster128, Bytes: 32 << 10, Seed: 1}
	for i := 0; i < b.N; i++ {
		t, err := exp.SemanticsComparison(o)
		render(b, t, err)
	}
}

// BenchmarkPlacementComparison regenerates the placement-policy study.
func BenchmarkPlacementComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := exp.PlacementComparison(topo.Cluster128)
		render(b, t, err)
	}
}

// BenchmarkSchedulerPolicies regenerates the admission-policy study.
func BenchmarkSchedulerPolicies(b *testing.B) {
	o := exp.DefaultQueueOpts()
	o.Base.Jobs = 150
	for i := 0; i < b.N; i++ {
		t, err := exp.SchedulerPolicies(o)
		render(b, t, err)
	}
}

// BenchmarkNetsimDependentRecDbl measures the dependency-gated simulator
// on a full recursive-doubling schedule.
func BenchmarkNetsimDependentRecDbl(b *testing.B) {
	t := topo.MustBuild(topo.Cluster128)
	job, err := mpi.NewContentionFreeJob(t, nil)
	if err != nil {
		b.Fatal(err)
	}
	seq := cps.RecursiveDoubling(t.NumHosts())
	cfg := netsim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.SimulateMode(seq, 32<<10, mpi.Dependent, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledVsWalk1944 runs the same HSD workload — a
// stride-sampled Shift over the 1944-host RLFT, the
// BenchmarkHSDAnalyzeSequential-equivalent job at paper scale — once
// through per-pair table walks and once through the compiled path cache.
// The acceptance bar for the cache is >=3x on the "compiled" variant.
// The "compile" sub-benchmark prices the one-time arena build that the
// replays amortize.
func BenchmarkCompiledVsWalk1944(b *testing.B) {
	t := topo.MustBuild(topo.Cluster1944)
	n := t.NumHosts()
	lft := route.DModK(t)
	o := order.Topology(n, nil)
	full := cps.Shift(n)
	stages := make([]int, 0, full.NumStages()/9+1)
	for s := 0; s < full.NumStages(); s += 9 {
		stages = append(stages, s)
	}
	seq, err := mpi.SampleStages(full, stages)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hsd.Analyze(lft, o, seq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := route.CompileParallel(route.Router(lft), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	c, err := route.Compile(lft)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hsd.Analyze(c, o, seq); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNetsimObsOverhead prices the observability tax on the
// simulator hot path with the same Ring stage as
// BenchmarkNetsimRingStage324: "off" is the nil-check-only baseline
// (must stay within noise of that benchmark), "metrics" attaches the
// registry, and "full" adds probes and the Chrome tracer writing to
// discard sinks.
func BenchmarkNetsimObsOverhead(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	lft := route.DModK(t)
	n := t.NumHosts()
	msgs := make([]netsim.Message, n)
	for i := range msgs {
		msgs[i] = netsim.Message{Src: i, Dst: (i + 1) % n, Bytes: 64 << 10}
	}
	run := func(b *testing.B, cfg netsim.Config) {
		nw, err := netsim.New(lft, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := nw.Run(msgs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, netsim.DefaultConfig()) })
	b.Run("metrics", func(b *testing.B) {
		cfg := netsim.DefaultConfig()
		cfg.Metrics = obs.NewRegistry()
		run(b, cfg)
	})
	b.Run("full", func(b *testing.B) {
		cfg := netsim.DefaultConfig()
		cfg.Metrics = obs.NewRegistry()
		cfg.Probes = obs.NewSampler(io.Discard, 10*des.Microsecond)
		cfg.Trace = obs.NewTracer(io.Discard)
		run(b, cfg)
	})
}

// BenchmarkServeRoute measures the fabric daemon's read path end to end
// — HTTP mux, inflight gate, snapshot load, compiled-path lookup, JSON
// encode — with concurrent clients hammering /v1/route on the paper's
// 324-node cluster, the deployment the daemon fronts. RCU snapshot
// reads should keep per-request cost flat as parallelism rises.
func BenchmarkServeRoute(b *testing.B) {
	m, err := fmgr.New(fmgr.Config{
		Topo:        topo.MustBuild(topo.Cluster324),
		Metrics:     obs.NewRegistry(),
		MaxInflight: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Start()
	defer m.Close()
	h := m.Handler()
	n := m.Current().Topo.NumHosts()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			src := i % n
			dst := (i + 7) % n
			i++
			req := httptest.NewRequest("GET", "/v1/route?src="+strconv.Itoa(src)+"&dst="+strconv.Itoa(dst), nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
		}
	})
	b.StopTimer()
	// One route per request, so routes/s is directly comparable with
	// BenchmarkServeRouteSet324's batched protocol.
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "routes/s")
}

// BenchmarkServeRouteSet324 measures the batched binary route path on
// the paper's 324-node cluster: one RouteSet frame resolves a whole
// job's src->dst set (324 hosts, 104,652 ordered pairs) through
// ServeWire — sniffless pipe transport, frame decode, snapshot lookup
// of the placement-precomputed factored frame, the conn write and the
// client-side expansion to the pair list. The
// routes/s metric is the headline against the per-pair JSON path in
// BenchmarkServeRoute.
func BenchmarkServeRouteSet324(b *testing.B) {
	m, err := fmgr.New(fmgr.Config{
		Topo:    topo.MustBuild(topo.Cluster324),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	m.Start()
	defer m.Close()
	n := m.Current().Topo.NumHosts()
	alloc, err := m.AllocJob(n, false)
	if err != nil {
		b.Fatal(err)
	}
	for m.Current().JobRouteSets[alloc.ID].Frame == nil {
		time.Sleep(time.Millisecond) // wait out the debounced placement rebuild
	}
	routesPerReq := float64(n * (n - 1))

	bench := func(b *testing.B, req wire.Message, wantPairs int) {
		b.RunParallel(func(pb *testing.PB) {
			srv, cli := net.Pipe()
			go m.ServeWire(srv)
			defer cli.Close()
			br := bufio.NewReaderSize(cli, 1<<20)
			for pb.Next() {
				if err := wire.WriteMessage(cli, req); err != nil {
					b.Fatal(err)
				}
				resp, err := wire.ReadMessage(br)
				if err != nil {
					b.Fatal(err)
				}
				// Job mode answers factored; the client's one expansion
				// per fetch is part of what a fetched route costs.
				if f, ok := resp.(*wire.RouteSetFactored); ok {
					resp = f.Expand()
				}
				rs, ok := resp.(*wire.RouteSetResp)
				if !ok || len(rs.Pairs) != wantPairs {
					b.Fatalf("resp %T, want %d pairs", resp, wantPairs)
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)*float64(wantPairs)/b.Elapsed().Seconds(), "routes/s")
	}

	b.Run("job", func(b *testing.B) {
		// The steady-state production shape: the whole-job set served
		// from the placement-time precomputed frame.
		bench(b, &wire.RouteSetReq{ByJob: true, Job: uint64(alloc.ID)}, int(routesPerReq))
	})
	b.Run("pairs324", func(b *testing.B) {
		// Explicit-batch shape: 324 pairs resolved from the CSR arena
		// per request.
		pairs := make([][2]uint32, n)
		for i := range pairs {
			pairs[i] = [2]uint32{uint32(i), uint32((i + 7) % n)}
		}
		bench(b, &wire.RouteSetReq{Pairs: pairs}, n)
	})
}

// BenchmarkSweepOrderingsParallel compares the sequential Walk-based
// ordering sweep against the compiled parallel sweep on the 324-node
// cluster — the Figure 3 inner loop.
func BenchmarkSweepOrderingsParallel(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	n := t.NumHosts()
	lft := route.DModK(t)
	var orders []*order.Ordering
	for s := int64(0); s < 10; s++ {
		orders = append(orders, order.Random(n, nil, s))
	}
	full := cps.Shift(n)
	stages := make([]int, 0, full.NumStages()/4+1)
	for s := 0; s < full.NumStages(); s += 4 {
		stages = append(stages, s)
	}
	seq, err := mpi.SampleStages(full, stages)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("walk-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hsd.SweepOrderings(lft, orders, seq); err != nil {
				b.Fatal(err)
			}
		}
	})
	c, err := route.Compile(lft)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hsd.SweepOrderingsParallel(c, orders, seq, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInvariantSuite324 runs the full invariant catalog — all 15
// executable theorem and representation checks — against the paper's
// 324-node cluster under compiled D-Mod-K, the exact workload of `make
// check` and the CI theorem-verification job.
func BenchmarkInvariantSuite324(b *testing.B) {
	t := topo.MustBuild(topo.Cluster324)
	c, err := route.Compile(route.DModK(t))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := invariant.Run(invariant.NewInstance(t, c, nil), nil)
		if !rep.Pass {
			b.Fatalf("catalog failed: %v", rep.FailedNames())
		}
	}
}
