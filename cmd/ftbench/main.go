// Command ftbench regenerates the paper's tables and figures. Every
// experiment of DESIGN.md's index is available; -exp all runs the full
// evaluation at paper scale, -quick shrinks clusters and sampling for a
// fast smoke run.
//
// Usage:
//
//	ftbench -exp all -quick
//	ftbench -exp f3
//	ftbench -exp t3 > table3.txt
//	ftbench -exp cf -quick -trace cf.json -metrics cf.jsonl
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"fattree/internal/cli"
	"fattree/internal/exp"
	"fattree/internal/netsim"
	"fattree/internal/topo"
)

func main() { os.Exit(cli.Main("ftbench", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		which    = a.Flags.String("exp", "all", "experiment: f1 | f2 | f3 | t3 | ring | cf | wrap | routing | bidir | semantics | placement | latency | taper | patterns | adaptive | jitter | buffers | jobs | queue | faults | all")
		engName  = a.Engine()
		quick    = a.Flags.Bool("quick", false, "reduced scale for a fast run")
		csvOut   = a.Flags.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut  = a.Flags.Bool("json", false, "emit JSON (fattree-table/v1) instead of aligned text")
		progress = a.Flags.Duration("progress", 0, "print a live progress line to stderr at this wall-clock interval (0 = off)")
		sinks    = a.Sinks()
	)
	a.Profile()
	return func(w io.Writer) error {
		exp.EngineName = *engName
		if sinks.Enabled() || *progress > 0 {
			// Attach the sinks to every simulation the experiments run;
			// the trace concatenates all runs on a shared timeline, and
			// one Progress accumulates across the sweep.
			var prog *netsim.Progress
			if *progress > 0 {
				prog = &netsim.Progress{}
				stop := prog.Report(a.Stderr, *progress, "ftbench")
				defer stop()
			}
			exp.Instrument = func(cfg *netsim.Config) {
				cfg.Metrics = sinks.Registry
				cfg.Probes = sinks.Sampler
				cfg.Trace = sinks.Tracer
				cfg.LinkProbes = sinks.LinkSampler
				cfg.Progress = prog
			}
		}
		return run(w, *which, *quick, *csvOut, *jsonOut)
	}
}

func run(out io.Writer, which string, quick, csvOut, jsonOut bool) error {
	sel := map[string]bool{}
	for _, w := range strings.Split(which, ",") {
		sel[strings.TrimSpace(w)] = true
	}
	ran := false
	want := func(k string) bool {
		hit := sel["all"] || sel[k]
		if hit {
			ran = true
		}
		return hit
	}
	emit := func(t *exp.Table) error {
		switch {
		case jsonOut:
			return t.RenderJSON(out)
		case csvOut:
			return t.RenderCSV(out)
		}
		return t.Render(out)
	}

	if want("f1") {
		t, err := exp.Figure1(5)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("f2") {
		o := exp.DefaultFigure2Opts()
		if quick {
			o.Cluster = topo.Cluster324
			o.Sizes = []int64{8 << 10, 64 << 10, 512 << 10}
			o.ShiftStages = 4
		}
		t, err := exp.Figure2(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("f3") {
		o := exp.DefaultFigure3Opts()
		if quick {
			o.Clusters = []topo.PGFT{topo.Cluster128, topo.Cluster324}
			o.Seeds = 5
			o.ShiftStride = 7
		}
		t, err := exp.Figure3(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("t3") {
		o := exp.DefaultTable3Opts()
		if quick {
			o.Cases = o.Cases[:6]
			o.RandomSeeds = 3
			o.ShiftStride = 5
		}
		t, err := exp.Table3(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("ring") {
		o := exp.DefaultRingOpts()
		if quick {
			o.Cluster = topo.Cluster324
			o.Bytes = 64 << 10
		}
		t, err := exp.RingAdversarial(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("cf") {
		o := exp.DefaultCFOpts()
		if quick {
			o.Cluster = topo.Cluster324
			o.Bytes = 64 << 10
			o.ShiftStages = 4
		}
		t, err := exp.ContentionFree(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("wrap") {
		cluster := topo.Cluster324
		seeds := 5
		if quick {
			cluster = topo.Cluster128
			seeds = 2
		}
		t, err := exp.WrapAblation(cluster, seeds)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("routing") {
		cluster := topo.Cluster1728
		if quick {
			cluster = topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2})
		}
		t, err := exp.RoutingAblation(cluster)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("bidir") {
		cluster := topo.Cluster1944
		if quick {
			cluster = topo.Cluster324
		}
		t, err := exp.BidirAblation(cluster)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("queue") {
		o := exp.DefaultQueueOpts()
		if quick {
			o.Base.Jobs = 150
		}
		t, err := exp.SchedulerPolicies(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("semantics") {
		o := exp.DefaultSemanticsOpts()
		if quick {
			o.Cluster = topo.Cluster128
			o.Bytes = 32 << 10
		}
		t, err := exp.SemanticsComparison(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("placement") {
		cluster := topo.Cluster324
		if quick {
			cluster = topo.Cluster128
		}
		t, err := exp.PlacementComparison(cluster)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("latency") {
		o := exp.DefaultLatencyOpts()
		if quick {
			o.Sizes = []int64{2 << 10, 128 << 10}
		}
		t, err := exp.CollectiveLatency(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("taper") {
		t, err := exp.TaperAblation()
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("patterns") {
		o := exp.DefaultPatternOpts()
		if quick {
			o.Cluster = topo.Cluster128
			o.Bytes = 32 << 10
		}
		t, err := exp.PatternSweep(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("adaptive") {
		o := exp.DefaultAdaptiveOpts()
		if quick {
			o.Cluster = topo.Cluster128
			o.Bytes = 64 << 10
		}
		t, err := exp.AdaptiveComparison(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("jitter") {
		o := exp.DefaultJitterOpts()
		if quick {
			o.Cluster = topo.Cluster128
			o.Bytes = 64 << 10
			o.Stages = 3
		}
		t, err := exp.JitterSensitivity(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("buffers") {
		o := exp.DefaultBufferOpts()
		if quick {
			o.Cluster = topo.Cluster128
			o.Bytes = 64 << 10
			o.Buffers = []int{1, 4, 16}
			o.Stages = 3
		}
		t, err := exp.BufferAblation(o)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("jobs") {
		cluster := topo.Cluster1944
		if quick {
			cluster = topo.Cluster324
		}
		t, err := exp.MultiJob(cluster)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if want("faults") {
		cluster := topo.Cluster324
		seeds := 5
		if quick {
			cluster = topo.Cluster128
			seeds = 2
		}
		t, err := exp.FaultResilience(cluster, seeds)
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("no experiment matched %q (see -h for the list)", which)
	}
	return nil
}
