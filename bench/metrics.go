package main

import (
	"encoding/json"
)

// The four workloads. Names are fixed: later issues state their claim
// as "<end-to-end metric> on <workload>".
const (
	wlFig2  = "fig2-sim324"
	wlSweep = "hsd-sweep1944"
	wlServe = "serve-routes324"
	wlChurn = "fault-churn324"
)

var allWorkloads = []string{wlFig2, wlSweep, wlServe, wlChurn}

// workloadWhy records why each workload exists (copied into
// BENCHMARK.json).
var workloadWhy = map[string]string{
	wlFig2:  "Figure 2 packet simulation on 324 hosts: netsim/des/mpi do all the work, route compile, hsd, fmgr and wire none",
	wlSweep: "cold Figure 3/Table 3 pipeline at 1944 hosts: prices path-arena build (route) against arena replay (hsd); no netsim, no daemon",
	wlServe: "steady-state daemon reads over loopback TCP: random arena lookups through the binary serving stack; no rebuild, no netsim",
	wlChurn: "link fail/revive against a default-config daemon while clients poll: snapshot rebuild beside the read path",
}

// metricDef is one row of the ledger. End-to-end rows are emitted by
// every workload with tracing off and carry the regression bound the
// driver enforces. Per-layer rows are emitted by the traced run; On
// lists the workloads that measure them (every other workload reports
// 0: the layer does no work there). A per-layer Bound is enforced only
// by `-agree`. Exact marks a count that must repeat bit for bit on the
// same seed (the two Mallocs-delta rows of whole compiles and decodes
// repeat only to within a few objects of runtime noise, so they are
// plain counts). Untraced marks a per-layer row taken from the traced run's
// untraced pass: a user-facing latency, not a layer's share.
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	Bound    float64
	Exact    bool
	Untraced bool
	On       []string
}

// endToEnd is what a user of the system sees. "op" is the workload's
// unit of work: one full Figure 2 reproduction, one cold sweep
// pipeline, one 324-pair binary RouteSet request, one fault ->
// every-client-fresh convergence. op_ms is the run's fastest operation
// on the two batch workloads (every operation does identical work, and
// this box slows whole stretches of a run by a quarter, so the median
// reports the neighbours; see README.md) and the median on the two
// serving workloads. "work" is simulator events, flows analysed, pair
// routes returned and fresh route sets delivered. The time bounds are the
// widest the driver allows: ten-seed quartile spreads on this box read
// up to 7 %, and two sets half an hour apart drifted by up to 13 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

var daemonWorkloads = []string{wlServe, wlChurn}

var perLayer = []metricDef{
	{Name: "topo.build_ms", Unit: "ms", Better: "lower", On: allWorkloads},

	{Name: "route.dmodk_ms", Unit: "ms", Better: "lower", On: []string{wlFig2, wlSweep}},
	{Name: "route.compile_ms", Unit: "ms", Better: "lower", On: []string{wlSweep}},
	{Name: "route.compile_allocs", Unit: "count", Better: "lower", On: []string{wlSweep}},
	{Name: "route.arena_entries", Unit: "count", Better: "lower", Exact: true, On: []string{wlSweep}},
	{Name: "route.compile_lenient_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "route.lookup_ns_per_pair", Unit: "ns", Better: "lower", On: []string{wlServe}},

	{Name: "hsd.replay_ms", Unit: "ms", Better: "lower", On: []string{wlSweep}},
	{Name: "hsd.flows_per_s", Unit: "1/s", Better: "higher", On: []string{wlSweep}},
	{Name: "hsd.stage_us", Unit: "us", Better: "lower", On: []string{wlSweep}},
	{Name: "hsd.allocs_per_stage", Unit: "count", Better: "lower", Exact: true, On: []string{wlSweep}},

	{Name: "mpi.newjob_ms", Unit: "ms", Better: "lower", On: []string{wlFig2}},

	{Name: "netsim.run_ms", Unit: "ms", Better: "lower", On: []string{wlFig2}},
	{Name: "netsim.ns_per_event", Unit: "ns", Better: "lower", On: []string{wlFig2}},
	{Name: "netsim.events", Unit: "count", Better: "lower", Exact: true, On: []string{wlFig2}},
	{Name: "netsim.sim_duration_ns", Unit: "ns", Better: "lower", Exact: true, On: []string{wlFig2}},
	{Name: "netsim.bytes_delivered", Unit: "bytes", Better: "higher", Exact: true, On: []string{wlFig2}},
	{Name: "netsim.allocs_per_run", Unit: "count", Better: "lower", On: []string{wlFig2}},

	{Name: "des.ns_per_event", Unit: "ns", Better: "lower", On: []string{wlFig2}},

	{Name: "engine.tables_ms.dmodk", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "engine.tables_ms.fault-resilient", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "fabric.route_around_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "invariant.lenient_arena_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},

	{Name: "wire.encode_job_frame_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "wire.decode_job_frame_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "wire.decode_job_frame_allocs", Unit: "count", Better: "lower", On: []string{wlChurn}},
	{Name: "wire.job_frame_bytes", Unit: "bytes", Better: "lower", Exact: true, On: []string{wlChurn}},
	{Name: "wire.encode_pairs_us", Unit: "us", Better: "lower", On: []string{wlServe}},
	{Name: "wire.decode_pairs_us", Unit: "us", Better: "lower", On: []string{wlServe}},

	{Name: "fmgr.new_ms", Unit: "ms", Better: "lower", On: daemonWorkloads},
	{Name: "fmgr.inject_to_swap_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "fmgr.reroute_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "fmgr.validate_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "fmgr.debounce_wait_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "fmgr.serve_pairs_us", Unit: "us", Better: "lower", On: []string{wlServe}},
	{Name: "fmgr.http_route_us", Unit: "us", Better: "lower", On: []string{wlServe}},

	{Name: "fclient.probe_rtt_us", Unit: "us", Better: "lower", On: daemonWorkloads},
	{Name: "fclient.warm_hit_us", Unit: "us", Better: "lower", On: []string{wlChurn}},
	{Name: "fclient.refetch_ms", Unit: "ms", Better: "lower", On: []string{wlChurn}},
	{Name: "fclient.refetches_per_epoch", Unit: "ratio", Better: "lower", On: []string{wlChurn}},
	{Name: "fclient.epoch_regressions", Unit: "count", Better: "lower", Exact: true, On: []string{wlChurn}},

	// User-facing tails and second request kinds. They cannot be
	// end-to-end rows because the driver wants every end-to-end metric
	// from every workload and never 0; `-agree` still holds them to a
	// bound. Measured in the traced run's untraced pass.
	{Name: "serve.pairs_req_p90_us", Untraced: true, Unit: "us", Better: "lower", Bound: 0.15, On: []string{wlServe}},
	{Name: "serve.json_req_p50_us", Untraced: true, Unit: "us", Better: "lower", Bound: 0.10, On: []string{wlServe}},
	{Name: "churn.fresh_p90_ms", Untraced: true, Unit: "ms", Better: "lower", Bound: 0.15, On: []string{wlChurn}},
	{Name: "churn.read_p90_us", Untraced: true, Unit: "us", Better: "lower", Bound: 0.15, On: []string{wlChurn}},

	// Process CPU (user+system) per operation, from the untraced pass:
	// what a wall-clock gain cost in processor time.
	{Name: "host.cpu_ms_per_op", Untraced: true, Unit: "ms", Better: "lower", On: allWorkloads},

	// Instrument health. host.ref_spin_ms is a fixed integer loop timed
	// before the workload: the speed of the box, not of the program.
	{Name: "host.ref_spin_ms", Unit: "ms", Better: "lower", On: allWorkloads},
	{Name: "loadgen.late_p90_us", Unit: "us", Better: "lower", On: []string{wlChurn}},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", On: allWorkloads},
	{Name: "trace.layer_cover_pct", Unit: "%", Better: "higher", On: allWorkloads},
}

// measuredOn reports whether workload w measures the metric.
func (d metricDef) measuredOn(w string) bool {
	for _, on := range d.On {
		if on == w {
			return true
		}
	}
	return d.On == nil
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// runSeconds is how long one run measures when the driver does not say.
const runSeconds = 25

// manifest renders BENCHMARK.json from the tables above, so the file
// and the program cannot drift (bench_test.go compares them).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range allWorkloads {
		doc.Workloads = append(doc.Workloads, wl{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
