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
	"flag"
	"fmt"
	"math/rand"
	"os"

	"fattree/internal/cps"
	"fattree/internal/des"
	"fattree/internal/engine"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/obs"
	"fattree/internal/obs/prof"
	"fattree/internal/order"
	"fattree/internal/report"
	"fattree/internal/route"
	"fattree/internal/topo"
)

func main() {
	var (
		spec     = flag.String("topo", "324", "topology spec")
		engName  = flag.String("engine", "", "routing engine from the registry (default dmodk; \"list\" prints them)")
		cpsName  = flag.String("cps", "shift", "CPS: shift | ring | binomial | dissemination | tournament | recursive-doubling | recursive-halving | topo-aware")
		ordering = flag.String("order", "topology", "ordering: topology | random | adversarial")
		seeds    = flag.Int("seeds", 1, "random orderings to sweep")
		drop     = flag.Int("drop", 0, "randomly exclude this many end-ports (partial job)")
		dropSeed = flag.Int64("drop-seed", 1, "seed for the exclusion draw")
		perStage = flag.Bool("stages", false, "print per-stage detail")
		levels   = flag.Bool("levels", false, "print the per-tree-level breakdown of the worst stage")
		jsonOut  = flag.Bool("json", false, "emit the full per-stage report as JSON (fattree-blame/v1) instead of text")
		sinks    obs.FileSinks
	)
	sinks.RegisterFlags(flag.CommandLine)
	pf := prof.Register(flag.CommandLine)
	flag.Parse()
	if *engName == "list" {
		for _, info := range engine.Infos() {
			fmt.Printf("%-16s %s\n", info.Name, info.Description)
		}
		return
	}
	err := sinks.Open()
	if err == nil {
		err = pf.Start()
	}
	if err == nil {
		err = run(*spec, *engName, *cpsName, *ordering, *seeds, *drop, *dropSeed, *perStage, *levels, *jsonOut, &sinks)
	}
	if perr := pf.Stop(); err == nil {
		err = perr
	}
	if cerr := sinks.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fthsd:", err)
		os.Exit(1)
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

func run(spec, engName, cpsName, ordering string, seeds, drop int, dropSeed int64, perStage, levels, jsonOut bool, sinks *obs.FileSinks) error {
	g, err := topo.ParseSpec(spec)
	if err != nil {
		return err
	}
	t, err := topo.Build(g)
	if err != nil {
		return err
	}
	n := t.NumHosts()

	var active []int
	if drop > 0 {
		r := rand.New(rand.NewSource(dropSeed))
		perm := r.Perm(n)
		active = append([]int(nil), perm[drop:]...)
	}
	var lft *route.LFT
	var rt route.Router
	if engName != "" {
		if active != nil {
			return fmt.Errorf("-drop is incompatible with -engine")
		}
		e, err := engine.Build(engName, t, engine.Options{Seed: dropSeed})
		if err != nil {
			return err
		}
		tb, err := e.Tables(nil)
		if err != nil {
			return err
		}
		// Engine routers come pre-compiled wherever possible; lft stays
		// nil for source-based engines, which only -levels needs.
		rt, lft = tb.Router, tb.LFT
	} else {
		if active == nil {
			lft = route.DModK(t)
		} else {
			lft, err = route.DModKActive(t, active)
			if err != nil {
				return err
			}
		}
		// The compiled path cache makes multi-ordering sweeps and long
		// sequences iterate packed arenas instead of re-walking the tables.
		if rt, err = route.Compile(lft); err != nil {
			return err
		}
	}
	jobSize := n
	if active != nil {
		jobSize = len(active)
	}

	var seq cps.Sequence
	if cpsName == "topo-aware" {
		seq, err = mpi.NewTopoAwareSequence(g.M, active)
	} else {
		seq, err = mpi.NewSequence(mpi.CPSKind(cpsName), jobSize)
	}
	if err != nil {
		return err
	}

	switch ordering {
	case "topology":
		return analyzeOne(rt, lft, order.Topology(n, active), seq, perStage, levels, jsonOut, sinks)
	case "adversarial":
		o, err := order.Adversarial(t)
		if err != nil {
			return err
		}
		if active != nil {
			return fmt.Errorf("adversarial ordering supports full population only")
		}
		return analyzeOne(rt, lft, o, seq, perStage, levels, jsonOut, sinks)
	case "random":
		if jsonOut && seeds == 1 {
			return analyzeOne(rt, lft, order.Random(n, active, 0), seq, perStage, levels, true, sinks)
		}
		if jsonOut {
			return fmt.Errorf("-json needs a single ordering; use -seeds 1")
		}
		var orders []*order.Ordering
		for s := 0; s < seeds; s++ {
			orders = append(orders, order.Random(n, active, int64(s)))
		}
		sw, err := hsd.SweepOrderingsParallel(rt, orders, seq, 0)
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
		fmt.Printf("%s / %s / random x%d on %s (job %d):\n", seq.Name(), rt.Label(), seeds, g, jobSize)
		fmt.Printf("  avg max HSD: mean %.3f  min %.3f  max %.3f\n", sw.Mean, sw.Min, sw.Max)
	default:
		return fmt.Errorf("unknown ordering %q", ordering)
	}
	return nil
}

// analyzeOne reports a single ordering: the usual text summary, or with
// jsonOut the full per-stage blame report (fattree-blame/v1) on stdout.
// The obs sinks are fed either way.
func analyzeOne(rt route.Router, lft *route.LFT, o *order.Ordering, seq cps.Sequence, perStage, levels, jsonOut bool, sinks *obs.FileSinks) error {
	rep, err := hsd.AnalyzeParallel(rt, o, seq, 0)
	if err != nil {
		return err
	}
	emitObs(rep, sinks)
	if jsonOut {
		blame, err := report.BuildBlame(rt, o, seq)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(blame)
	}
	printReport(rep, perStage)
	if levels {
		if lft == nil {
			return fmt.Errorf("-levels needs forwarding tables; %s has no LFT realization", rt.Label())
		}
		return printLevels(lft, o, seq, rep)
	}
	return nil
}

// printLevels re-analyzes the worst stage and prints its per-tree-level
// maximum flow counts, locating where the hot spot lives.
func printLevels(lft *route.LFT, o *order.Ordering, seq cps.Sequence, rep *hsd.Report) error {
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
	fmt.Printf("  worst stage %d per-level max flows (up/down):\n", worst)
	for l := 0; l < len(up); l++ {
		name := "host links"
		if l > 0 {
			name = fmt.Sprintf("level %d-%d", l, l+1)
		}
		fmt.Printf("    %-11s %d / %d\n", name, up[l], down[l])
	}
	return nil
}

func printReport(rep *hsd.Report, perStage bool) {
	fmt.Printf("%s / %s / %s:\n", rep.Sequence, rep.Routing, rep.Ordering)
	fmt.Printf("  stages: %d  max HSD: %d  avg max HSD: %.3f  contention-free: %v\n",
		len(rep.Stages), rep.MaxHSD(), rep.AvgMaxHSD(), rep.ContentionFree())
	fmt.Printf("  synchronized effective bandwidth: %.3f of nominal\n", rep.SyncEffectiveBandwidth())
	if perStage {
		for i, s := range rep.Stages {
			fmt.Printf("  stage %4d: flows %5d  max HSD %d (up %d / down %d)  hot links %d\n",
				i, s.Flows, s.MaxHSD, s.MaxUpHSD, s.MaxDownHSD, s.HotLinks)
		}
	}
}
