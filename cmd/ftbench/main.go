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
	"slices"
	"strings"

	"fattree/internal/cli"
	"fattree/internal/exp"
	"fattree/internal/netsim"
	"fattree/internal/topo"
)

func main() { os.Exit(cli.Main("ftbench", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		which    = a.Flags.String("exp", "all", "experiment: "+strings.Join(keys(), " | ")+" | all")
		engName  = a.Engine()
		quick    = a.Flags.Bool("quick", false, "reduced scale for a fast run")
		csvOut   = a.Flags.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut  = a.Flags.Bool("json", false, "emit JSON (fattree-table/v1) instead of aligned text")
		progress = a.Flags.Duration("progress", 0, "print a live progress line to stderr at this wall-clock interval (0 = off)")
		sinks    = a.Sinks()
	)
	a.Profile()
	return func(w io.Writer) error {
		if *progress < 0 {
			return fmt.Errorf("-progress %v: want 0 (off) or a positive interval", *progress)
		}
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
				cfg.Progress = prog
			}
		}
		return run(w, *which, *quick, *csvOut, *jsonOut)
	}
}

// experiments is DESIGN.md's index in the order -exp all runs it: each
// row builds one table at paper scale, or at a reduced scale when quick.
var experiments = []struct {
	key string
	run func(quick bool) (*exp.Table, error)
}{
	{"f1", func(bool) (*exp.Table, error) { return exp.Figure1(5) }},
	{"f2", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultFigure2Opts()
		if quick {
			o.Cluster, o.Sizes, o.ShiftStages = topo.Cluster324, []int64{8 << 10, 64 << 10, 512 << 10}, 4
		}
		return exp.Figure2(o)
	}},
	{"f3", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultFigure3Opts()
		if quick {
			o.Clusters, o.Seeds, o.ShiftStride = []topo.PGFT{topo.Cluster128, topo.Cluster324}, 5, 7
		}
		return exp.Figure3(o)
	}},
	{"t3", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultTable3Opts()
		if quick {
			o.Cases, o.RandomSeeds, o.ShiftStride = o.Cases[:6], 3, 5
		}
		return exp.Table3(o)
	}},
	{"ring", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultRingOpts()
		if quick {
			o.Cluster, o.Bytes = topo.Cluster324, 64<<10
		}
		return exp.RingAdversarial(o)
	}},
	{"cf", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultCFOpts()
		if quick {
			o.Cluster, o.Bytes, o.ShiftStages = topo.Cluster324, 64<<10, 4
		}
		return exp.ContentionFree(o)
	}},
	{"wrap", func(quick bool) (*exp.Table, error) {
		return exp.WrapAblation(pick(quick, topo.Cluster324, topo.Cluster128), pick(quick, 5, 2))
	}},
	{"routing", func(quick bool) (*exp.Table, error) {
		return exp.RoutingAblation(pick(quick, topo.Cluster1728,
			topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2})))
	}},
	{"bidir", func(quick bool) (*exp.Table, error) {
		return exp.BidirAblation(pick(quick, topo.Cluster1944, topo.Cluster324))
	}},
	{"semantics", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultSemanticsOpts()
		if quick {
			o.Cluster, o.Bytes = topo.Cluster128, 32<<10
		}
		return exp.SemanticsComparison(o)
	}},
	{"taper", func(bool) (*exp.Table, error) { return exp.TaperAblation() }},
	{"adaptive", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultAdaptiveOpts()
		if quick {
			o.Cluster, o.Bytes = topo.Cluster128, 64<<10
		}
		return exp.AdaptiveComparison(o)
	}},
	{"jitter", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultJitterOpts()
		if quick {
			o.Cluster, o.Bytes, o.Stages = topo.Cluster128, 64<<10, 3
		}
		return exp.JitterSensitivity(o)
	}},
	{"buffers", func(quick bool) (*exp.Table, error) {
		o := exp.DefaultBufferOpts()
		if quick {
			o.Cluster, o.Bytes, o.Buffers, o.Stages = topo.Cluster128, 64<<10, []int{1, 4, 16}, 3
		}
		return exp.BufferAblation(o)
	}},
	{"jobs", func(quick bool) (*exp.Table, error) {
		return exp.MultiJob(pick(quick, topo.Cluster1944, topo.Cluster324))
	}},
}

// pick returns the paper-scale value, or the reduced one under -quick.
func pick[T any](quick bool, full, reduced T) T {
	if quick {
		return reduced
	}
	return full
}

func keys() []string {
	ks := make([]string, len(experiments))
	for i, e := range experiments {
		ks[i] = e.key
	}
	return ks
}

// run renders every selected experiment in table order; an unknown key
// anywhere in the list is refused before anything runs.
func run(out io.Writer, which string, quick, csvOut, jsonOut bool) error {
	sel := map[string]bool{}
	for _, k := range strings.Split(which, ",") {
		k = strings.TrimSpace(k)
		if k != "all" && !slices.Contains(keys(), k) {
			return fmt.Errorf("no experiment matched %q (want one or more of %s, or all)", k, strings.Join(keys(), ","))
		}
		sel[k] = true
	}
	for _, e := range experiments {
		if !sel["all"] && !sel[e.key] {
			continue
		}
		t, err := e.run(quick)
		if err == nil {
			switch {
			case jsonOut:
				err = t.RenderJSON(out)
			case csvOut:
				err = t.RenderCSV(out)
			default:
				err = t.Render(out)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
