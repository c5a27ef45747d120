// Command fthsd runs the analytic Hot-Spot-Degree model: it reports, for
// a topology, routing, node ordering and collective permutation sequence,
// the per-stage maximum number of flows sharing a link. HSD = 1 means
// contention-free traffic. This mirrors the ibdm-based tool of Sections
// II and VII.
//
// Usage:
//
//	fthsd -topo 324 -cps shift -order topology
//	fthsd -topo 1944 -cps recursive-doubling -order random -seeds 25
//	fthsd -topo 324 -cps topo-aware -order topology -drop 18
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"fattree/internal/cli"
	"fattree/internal/cps"
	"fattree/internal/des"
	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/obs"
	"fattree/internal/order"
	"fattree/internal/report"
	"fattree/internal/route"
)

func main() { os.Exit(cli.Main("fthsd", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec     = a.Topo("324")
		engName  = a.Engine()
		seed     = a.Seed(1, "seed for randomized engines")
		cpsName  = a.Flags.String("cps", "shift", "CPS: shift | ring | binomial | dissemination | tournament | recursive-doubling | recursive-halving | topo-aware")
		ordering = a.Flags.String("order", "topology", "ordering: topology | random | adversarial | cyclic")
		seeds    = a.Flags.Int("seeds", 1, "random orderings to sweep")
		drop     = a.Drop()
		perStage = a.Flags.Bool("stages", false, "print per-stage detail")
		levels   = a.Flags.Bool("levels", false, "print the per-tree-level breakdown of the worst stage")
		jsonOut  = a.Flags.Bool("json", false, "emit the full per-stage report as JSON (fattree-blame/v1) instead of text")
		sinks    = a.Sinks()
	)
	a.Profile()
	return func(w io.Writer) error {
		return run(w, *spec, *engName, *seed, *cpsName, *ordering, *seeds, drop, *perStage, *levels, *jsonOut, sinks)
	}
}

// emitObs exports an analytic report through the observability sinks:
// summary gauges, a per-stage HSD histogram and flow counters into the
// registry, plus a synthetic timeline onto the tracer — the HSD model
// has no clock, so each stage becomes a span lasting its max HSD in
// microseconds, the synchronized-bandwidth cost model where a stage
// with HSD h takes h times the contention-free stage time.
func emitObs(rep *hsd.Report, sinks *obs.FileSinks) {
	if !sinks.Enabled() {
		return
	}
	reg := sinks.Registry
	reg.Gauge("fthsd_stages").Set(int64(len(rep.Stages)))
	reg.Gauge("fthsd_max_hsd").Set(int64(rep.MaxHSD()))
	hist := reg.MustHistogram("fthsd_stage_max_hsd", []float64{1, 2, 4, 8, 16, 32, 64})
	flows := reg.Counter("fthsd_flows_total")
	hot := reg.Counter("fthsd_hot_links_total")
	tr := sinks.Tracer
	tr.ProcessName(0, fmt.Sprintf("%s / %s / %s", rep.Sequence, rep.Routing, rep.Ordering))
	var at des.Time
	for i, s := range rep.Stages {
		hist.Observe(float64(s.MaxHSD))
		flows.Add(int64(s.Flows))
		hot.Add(int64(s.HotLinks))
		dur := des.Time(s.MaxHSD) * des.Microsecond
		if dur <= 0 {
			dur = des.Microsecond
		}
		tr.Complete(0, 0, at, dur, fmt.Sprintf("stage %d", i),
			obs.Num("max_hsd", float64(s.MaxHSD)),
			obs.Num("flows", float64(s.Flows)),
			obs.Num("hot_links", float64(s.HotLinks)))
		at += dur
	}
}

func run(w io.Writer, spec, engName string, seed int64, cpsName, ordering string, seeds int, drop *cli.Drop, perStage, levels, jsonOut bool, sinks *obs.FileSinks) error {
	if sinks.ProbeEvery != 0 {
		return fmt.Errorf("-probe-interval %v: the HSD model has no simulated clock to sample", sinks.ProbeEvery)
	}
	if seeds < 1 {
		return fmt.Errorf("-seeds %d: want at least one random ordering", seeds)
	}
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return err
	}
	active, err := drop.Active(t.NumHosts())
	if err != nil {
		return err
	}
	// Engine routers come compiled, so multi-ordering sweeps and long
	// sequences iterate packed arenas; tb.LFT is nil for source-based
	// engines, which only -levels needs.
	tb, err := engine.Resolve(engName, t, engine.Options{Seed: seed, Active: active}, nil)
	if err != nil {
		return err
	}
	seq, err := mpi.SequenceByName(cpsName, t.Spec, active, 0)
	if err != nil {
		return err
	}
	if ordering != "random" || (jsonOut && seeds == 1) {
		o, err := order.ByName(ordering, t, active, 0)
		if err != nil {
			return err
		}
		return analyzeOne(w, tb, o, seq, perStage, levels, jsonOut, sinks)
	}
	if jsonOut {
		return fmt.Errorf("-json needs a single ordering; use -seeds 1")
	}
	var orders []*order.Ordering
	for s := 0; s < seeds; s++ {
		orders = append(orders, order.Random(t.NumHosts(), active, int64(s)))
	}
	sw, err := hsd.SweepOrderingsParallel(tb.Compiled, orders, seq, 0)
	if err != nil {
		return err
	}
	if sinks.Enabled() {
		// Sweeps have no per-stage report; record the summary on the
		// metrics stream (Record is a no-op without -metrics).
		sinks.Sampler.Record(map[string]interface{}{
			"sweep": map[string]float64{"mean": sw.Mean, "min": sw.Min, "max": sw.Max},
			"seeds": seeds,
		})
	}
	fmt.Fprintf(w, "%s / %s / random x%d on %s (job %d):\n", seq.Name(), tb.Compiled.Label(), seeds, t.Spec, seq.Size())
	fmt.Fprintf(w, "  avg max HSD: mean %.3f  min %.3f  max %.3f\n", sw.Mean, sw.Min, sw.Max)
	return nil
}

// analyzeOne reports a single ordering: the usual text summary, or with
// jsonOut the full per-stage blame report (fattree-blame/v1) on stdout.
// The obs sinks are fed either way.
func analyzeOne(w io.Writer, tb *fabric.Tables, o *order.Ordering, seq cps.Sequence, perStage, levels, jsonOut bool, sinks *obs.FileSinks) error {
	rt := tb.Compiled
	rep, err := hsd.Analyze(rt, o, seq)
	if err != nil {
		return err
	}
	emitObs(rep, sinks)
	if jsonOut {
		blame, err := report.BuildBlame(rt, o, seq)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(blame)
	}
	printReport(w, rep, perStage)
	if levels {
		if tb.LFT == nil {
			return fmt.Errorf("-levels needs forwarding tables; %s has no LFT realization", rt.Label())
		}
		return printLevels(w, tb.LFT, o, seq, rep)
	}
	return nil
}

// printLevels re-analyzes the worst stage and prints its per-tree-level
// maximum flow counts, locating where the hot spot lives.
func printLevels(w io.Writer, lft *route.LFT, o *order.Ordering, seq cps.Sequence, rep *hsd.Report) error {
	worst, worstHSD := -1, -1
	for i, s := range rep.Stages {
		if s.MaxHSD > worstHSD {
			worst, worstHSD = i, s.MaxHSD
		}
	}
	if worst < 0 {
		return nil
	}
	a := hsd.NewAnalyzer(lft)
	stage := seq.Stage(worst)
	pairs := make([][2]int, 0, len(stage))
	for _, p := range stage {
		pairs = append(pairs, [2]int{o.HostOf[p.Src], o.HostOf[p.Dst]})
	}
	if _, err := a.Stage(pairs); err != nil {
		return err
	}
	up, down := a.LevelLoads()
	fmt.Fprintf(w, "  worst stage %d per-level max flows (up/down):\n", worst)
	for l := 0; l < len(up); l++ {
		name := "host links"
		if l > 0 {
			name = fmt.Sprintf("level %d-%d", l, l+1)
		}
		fmt.Fprintf(w, "    %-11s %d / %d\n", name, up[l], down[l])
	}
	return nil
}

func printReport(w io.Writer, rep *hsd.Report, perStage bool) {
	fmt.Fprintf(w, "%s / %s / %s:\n", rep.Sequence, rep.Routing, rep.Ordering)
	fmt.Fprintf(w, "  stages: %d  max HSD: %d  avg max HSD: %.3f  contention-free: %v\n",
		len(rep.Stages), rep.MaxHSD(), rep.AvgMaxHSD(), rep.ContentionFree())
	fmt.Fprintf(w, "  synchronized effective bandwidth: %.3f of nominal\n", rep.SyncEffectiveBandwidth())
	if perStage {
		for i, s := range rep.Stages {
			fmt.Fprintf(w, "  stage %4d: flows %5d  max HSD %d (up %d / down %d)  hot links %d\n",
				i, s.Flows, s.MaxHSD, s.MaxUpHSD, s.MaxDownHSD, s.HotLinks)
		}
	}
}
