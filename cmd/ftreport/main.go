// Command ftreport turns the toolchain's telemetry into reports:
//
//	ftreport blame -topo 324 -cps recursive-doubling -order random
//	    attributes every overloaded link to the exact flows crossing it
//	    (the HSD model with flow tracking), as a table or -json.
//
//	ftreport html -metrics probes.jsonl -trace trace.json -o report.html
//	    renders the simulator's probe and trace streams into one
//	    self-contained HTML file: link-utilization heatmap, stage
//	    timeline, sparklines and quantile tables. No external assets.
//	    -load adds an ftload sweep as a p99-vs-offered-load curve;
//	    -events adds the daemon's fabric event journal as a timeline;
//	    -linkprobes adds the queue-depth-over-time heatmap, the hot-links
//	    table and (with a sharded -metrics stream) the shard-balance table;
//	    -bakeoff adds an ftbakeoff engine comparison: per-fault-level
//	    tables plus routability degradation curves.
//
//	ftreport bench -in BENCH_2026-08-05.json
//	    ingests `make bench-json` output into the dated history under
//	    results/bench/, compares against the baseline and, with -gate,
//	    exits non-zero on regressions beyond -tolerance.
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
	"regexp"
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
	case "bench":
		setup = setupBench
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
	fmt.Fprintln(w, `usage: ftreport <blame|html|bench> [flags]

  blame  attribute overloaded links to the flows crossing them
  html   render probe/trace streams into a self-contained HTML report
  bench  track benchmark history and gate on regressions

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
		rep, err := report.BuildBlame(tb.Router, o, seq)
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
	var (
		metrics    = fs.String("metrics", "", "probe JSONL stream (from -metrics of ftsim/fthsd)")
		trace      = fs.String("trace", "", "Chrome trace file (from -trace of ftsim/fthsd)")
		load       = fs.String("load", "", "fattree-load/v1 sweep (from ftload -out)")
		events     = fs.String("events", "", "fattree-events/v1 journal (from GET /v1/events)")
		linkprobes = fs.String("linkprobes", "", "fattree-linkprobe/v1 stream (from -link-probes of ftsim)")
		bakeoffIn  = fs.String("bakeoff", "", "fattree-bakeoff/v1 verdict (from ftbakeoff -o)")
		outPath    = fs.String("o", "report.html", "output HTML file (- for stdout)")
		title      = fs.String("title", "", "report title")
		stamp      = fs.Bool("stamp", true, "include a generation timestamp (disable for reproducible output)")
		maxRows    = fs.Int("max-heatmap-rows", 64, "cap on heatmap channel rows")
	)
	return func(stdout io.Writer) error {
		if *metrics == "" && *trace == "" && *load == "" && *events == "" && *linkprobes == "" && *bakeoffIn == "" {
			return fmt.Errorf("html: need at least one of -metrics, -trace, -load, -events, -linkprobes, -bakeoff")
		}
		var in report.Inputs
		if *metrics != "" {
			f, err := os.Open(*metrics)
			if err != nil {
				return err
			}
			in.Probes, err = report.ParseProbes(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if *trace != "" {
			f, err := os.Open(*trace)
			if err != nil {
				return err
			}
			in.Trace, err = report.ParseTrace(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if *load != "" {
			// Comma-separated sweeps (e.g. JSON and binary over the same
			// daemon) each render as their own curve section.
			for _, path := range strings.Split(*load, ",") {
				path = strings.TrimSpace(path)
				if path == "" {
					continue
				}
				f, err := os.Open(path)
				if err != nil {
					return err
				}
				doc, err := report.ParseLoad(f)
				f.Close()
				if err != nil {
					return err
				}
				in.Loads = append(in.Loads, doc)
			}
		}
		if *events != "" {
			f, err := os.Open(*events)
			if err != nil {
				return err
			}
			in.Events, err = report.ParseEvents(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if *linkprobes != "" {
			f, err := os.Open(*linkprobes)
			if err != nil {
				return err
			}
			in.LinkProbes, err = report.ParseProbes(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		if *bakeoffIn != "" {
			f, err := os.Open(*bakeoffIn)
			if err != nil {
				return err
			}
			in.Bakeoff, err = report.ParseBakeoff(f)
			f.Close()
			if err != nil {
				return err
			}
		}
		opt := report.HTMLOptions{
			Title:          *title,
			MaxHeatmapRows: *maxRows,
		}
		if *metrics != "" {
			opt.MetricsFile = filepath.Base(*metrics)
		}
		if *trace != "" {
			opt.TraceFile = filepath.Base(*trace)
		}
		if *load != "" {
			var bases []string
			for _, path := range strings.Split(*load, ",") {
				if path = strings.TrimSpace(path); path != "" {
					bases = append(bases, filepath.Base(path))
				}
			}
			opt.LoadFile = strings.Join(bases, ", ")
		}
		if *events != "" {
			opt.EventsFile = filepath.Base(*events)
		}
		if *linkprobes != "" {
			opt.LinkProbesFile = filepath.Base(*linkprobes)
		}
		if *bakeoffIn != "" {
			opt.BakeoffFile = filepath.Base(*bakeoffIn)
		}
		if *stamp {
			opt.Generated = time.Now().UTC().Format(time.RFC3339)
		}
		return writeOut(stdout, *outPath, func(w io.Writer) error { return report.RenderHTML(w, in, opt) })
	}
}

var dateInName = regexp.MustCompile(`\d{4}-\d{2}-\d{2}`)

func setupBench(a *cli.App) func(io.Writer) error {
	fs := a.Flags
	var (
		in        = fs.String("in", "", "bench output to ingest: `go test -json` or plain -bench text (- for stdin); empty compares newest history entry only")
		history   = fs.String("history", filepath.Join("results", "bench"), "history directory")
		date      = fs.String("date", "", "date of the run (YYYY-MM-DD; default from -in filename, else today)")
		label     = fs.String("label", "", "freeform label stored with the run")
		baseline  = fs.String("baseline", "", "baseline run to compare against (default <history>/baseline.json)")
		tolerance = fs.Float64("tolerance", 0.10, "allowed slowdown fraction before a bench counts as regressed")
		gate      = fs.Bool("gate", false, "exit non-zero when regressions exceed tolerance")
		noSave    = fs.Bool("no-save", false, "compare only; do not write the run into the history")
	)
	return func(stdout io.Writer) error {
		var cur *report.BenchRun
		if *in != "" {
			var r io.Reader
			if *in == "-" {
				r = os.Stdin
			} else {
				f, err := os.Open(*in)
				if err != nil {
					return err
				}
				defer f.Close()
				r = f
			}
			results, err := report.ParseGoBench(r)
			if err != nil {
				return err
			}
			if len(results) == 0 {
				return fmt.Errorf("bench: no benchmark results found in %s", *in)
			}
			d := *date
			if d == "" {
				d = dateInName.FindString(filepath.Base(*in))
			}
			if d == "" {
				d = time.Now().UTC().Format("2006-01-02")
			}
			cur = &report.BenchRun{Date: d, Label: *label, Results: results}
			if !*noSave {
				path, seeded, err := report.SaveRun(*history, cur)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "recorded %d benchmarks in %s\n", len(results), path)
				if seeded {
					fmt.Fprintf(stdout, "seeded %s from this run; future gates compare against it\n",
						filepath.Join(*history, "baseline.json"))
					return nil
				}
			}
		} else {
			runs, err := report.LoadHistory(*history)
			if err != nil {
				return err
			}
			if len(runs) == 0 {
				return fmt.Errorf("bench: no runs under %s; ingest one with -in", *history)
			}
			cur = runs[len(runs)-1]
		}

		basePath := *baseline
		if basePath == "" {
			basePath = filepath.Join(*history, "baseline.json")
		}
		base, err := report.LoadRun(basePath)
		if err != nil {
			return fmt.Errorf("bench: loading baseline: %w", err)
		}
		c := report.Compare(base, cur, *tolerance)
		if err := c.WriteTable(stdout); err != nil {
			return err
		}
		if *gate && c.Bad() {
			// The gate's whole point is the exit code; the table already
			// told the story.
			return cli.ErrFailed
		}
		return nil
	}
}
