// Command ftreport turns the toolchain's telemetry into reports:
//
//	ftreport blame -topo 324 -cps recursive-doubling -order random
//	    attributes every overloaded link to the exact flows crossing it
//	    (the HSD model with flow tracking), as a table or -json.
//
//	ftreport html -metrics probes.jsonl -trace trace.json -o report.html
//	    renders the simulator's probe and trace streams into one
//	    self-contained HTML file: link-utilization and queue-depth
//	    heatmaps, the hot-links table, stage timeline, sparklines and
//	    quantile tables. No external assets.
//	    -load adds an ftload sweep as a p99-vs-offered-load curve;
//	    -events adds the daemon's fabric event journal as a timeline;
//	    -bakeoff adds an ftbakeoff engine comparison: per-fault-level
//	    tables plus routability degradation curves.
//
// See docs/OBSERVABILITY.md for every schema this command reads and
// writes.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fattree/internal/cli"
	"fattree/internal/engine"
	"fattree/internal/mpi"
	"fattree/internal/order"
	"fattree/internal/report"
)

func main() { os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr)) }

// dispatch picks the subcommand; each one is a cli.Main command of its
// own.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var setup func(*cli.App) func(io.Writer) error
	switch args[0] {
	case "blame":
		setup = setupBlame
	case "html":
		setup = setupHTML
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "ftreport: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	return cli.Main("ftreport", args[1:], stdout, stderr, setup)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: ftreport <blame|html> [flags]

  blame  attribute overloaded links to the flows crossing them
  html   render probe/trace streams into a self-contained HTML report

Run 'ftreport <subcommand> -h' for flags.`)
}

// writeOut runs render against the -o target: stdout when path is empty
// or "-", else the named file.
func writeOut(stdout io.Writer, path string, render func(io.Writer) error) error {
	if path == "" || path == "-" {
		return render(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func setupBlame(a *cli.App) func(io.Writer) error {
	var (
		spec     = a.Topo("324")
		cpsName  = a.Flags.String("cps", "recursive-doubling", "CPS: shift | ring | binomial | dissemination | tournament | recursive-doubling | recursive-halving | topo-aware")
		ordering = a.Flags.String("order", "random", "ordering: topology | random | adversarial | cyclic")
		seed     = a.Seed(0, "seed for the random ordering")
		drop     = a.Drop()
		asJSON   = a.Flags.Bool("json", false, "emit the machine-readable report instead of the table")
		top      = a.Flags.Int("top", 8, "flows to print per hot link in the table (0 = all)")
		outPath  = a.Flags.String("o", "", "output file (default stdout)")
	)
	return func(stdout io.Writer) error {
		if *top < 0 {
			return fmt.Errorf("-top %d: want zero (every flow) or more flows a link", *top)
		}
		t, err := cli.BuildTopo(*spec)
		if err != nil {
			return err
		}
		active, err := drop.Active(t.NumHosts())
		if err != nil {
			return err
		}
		tb, err := engine.Resolve("", t, engine.Options{Active: active}, nil)
		if err != nil {
			return err
		}
		o, err := order.ByName(*ordering, t, active, *seed)
		if err != nil {
			return err
		}
		seq, err := mpi.SequenceByName(*cpsName, t.Spec, active, 0)
		if err != nil {
			return err
		}
		rep, err := report.BuildBlame(tb.Compiled, o, seq)
		if err != nil {
			return err
		}
		return writeOut(stdout, *outPath, func(w io.Writer) error {
			if *asJSON {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(rep)
			}
			return rep.WriteBlameTable(w, *top)
		})
	}
}

func setupHTML(a *cli.App) func(io.Writer) error {
	fs := a.Flags
	var in report.Inputs
	var opt report.HTMLOptions
	// One row per input: the flag naming the file, the provenance line
	// its base name goes on, and the parser filing it into in. Only
	// -load takes a comma-separated list: several sweeps (e.g. JSON and
	// binary over the same daemon) each render as their own curve.
	inputs := []struct {
		path, label *string
		parse       func(io.Reader) error
	}{
		{fs.String("metrics", "", "probe JSONL stream (from -metrics of ftsim/fthsd)"), &opt.MetricsFile,
			func(r io.Reader) (err error) { in.Probes, err = report.ParseProbes(r); return }},
		{fs.String("trace", "", "Chrome trace file (from -trace of ftsim/fthsd)"), &opt.TraceFile,
			func(r io.Reader) (err error) { in.Trace, err = report.ParseTrace(r); return }},
		{fs.String("load", "", "fattree-load/v1 sweep (from ftload -out)"), &opt.LoadFile,
			func(r io.Reader) error {
				doc, err := report.ParseLoad(r)
				in.Loads = append(in.Loads, doc)
				return err
			}},
		{fs.String("events", "", "fattree-events/v1 journal (from GET /v1/events)"), &opt.EventsFile,
			func(r io.Reader) (err error) { in.Events, err = report.ParseEvents(r); return }},
		{fs.String("bakeoff", "", "fattree-bakeoff/v1 verdict (from ftbakeoff -o)"), &opt.BakeoffFile,
			func(r io.Reader) (err error) { in.Bakeoff, err = report.ParseBakeoff(r); return }},
	}
	var (
		outPath = fs.String("o", "report.html", "output HTML file (- for stdout)")
		stamp   = fs.Bool("stamp", true, "include a generation timestamp (disable for reproducible output)")
	)
	fs.StringVar(&opt.Title, "title", "", "report title")
	fs.IntVar(&opt.MaxHeatmapRows, "max-heatmap-rows", 64, "cap on heatmap channel rows")
	return func(stdout io.Writer) error {
		if opt.MaxHeatmapRows < 1 {
			return fmt.Errorf("-max-heatmap-rows %d: want at least one row", opt.MaxHeatmapRows)
		}
		given := false
		for _, row := range inputs {
			if *row.path == "" {
				continue
			}
			given = true
			paths := []string{*row.path}
			if row.label == &opt.LoadFile {
				paths = strings.Split(*row.path, ",")
			}
			var bases []string
			for _, path := range paths {
				if path = strings.TrimSpace(path); path == "" {
					continue
				}
				f, err := os.Open(path)
				if err != nil {
					return err
				}
				err = row.parse(f)
				f.Close()
				if err != nil {
					return err
				}
				bases = append(bases, filepath.Base(path))
			}
			*row.label = strings.Join(bases, ", ")
		}
		if !given {
			return fmt.Errorf("html: need at least one of -metrics, -trace, -load, -events, -bakeoff")
		}
		if *stamp {
			opt.Generated = time.Now().UTC().Format(time.RFC3339)
		}
		return writeOut(stdout, *outPath, func(w io.Writer) error { return report.RenderHTML(w, in, opt) })
	}
}
