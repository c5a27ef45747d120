// Command ftbakeoff races every registered routing engine through an
// escalating fault storm on a seeded fabric and reports per-engine
// routability, Shift-HSD degradation, reroute wall-clock latency and
// (with -sim) netsim max queue depth. The verdict is a schema-stamped
// fattree-bakeoff/v1 JSON document that ftreport html renders as a
// comparison table with degradation curves.
//
// Usage:
//
//	ftbakeoff -topo 324 -seed 7 -o bakeoff.json
//	ftbakeoff -topo rlft2:4,8 -engines dmodk,fault-resilient -sim
//	ftbakeoff -topo rlft2:4,8 -min-routability 50   # CI gate
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"fattree/internal/bakeoff"
	"fattree/internal/cli"
	"fattree/internal/schema"
)

func main() { os.Exit(cli.Main("ftbakeoff", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec    = a.Topo("324")
		engines = a.Flags.String("engines", "", "comma-separated engines to race (default: all registered)")
		seed    = a.Seed(7, "seed for fault draws and seeded engines")
		sim     = a.Flags.Bool("sim", false, "simulate sampled Shift stages for max queue depth (slower)")
		bytes   = a.Flags.Int64("bytes", 64<<10, "per-message payload for -sim")
		stages  = a.Flags.Int("sim-stages", 4, "Shift stages sampled per cell for -sim")
		minRout = a.Flags.Float64("min-routability", 0, "fail when any engine drops below this routability % at any level")
		out     = a.Flags.String("o", "", "write the fattree-bakeoff/v1 JSON verdict to this file")
		jsonOut = a.Flags.Bool("json", false, "print the JSON verdict to stdout instead of the table")
	)
	a.Profile()
	return func(w io.Writer) error {
		return run(w, *spec, *engines, *seed, *sim, *bytes, *stages, *minRout, *out, *jsonOut)
	}
}

func run(w io.Writer, spec, engines string, seed int64, sim bool, bytes int64, stages int, minRout float64, out string, jsonOut bool) error {
	if stages < 1 {
		return fmt.Errorf("-sim-stages %d: want at least one stage", stages)
	}
	if bytes < 1 {
		return fmt.Errorf("-bytes %d: want at least one byte a message", bytes)
	}
	if !(minRout >= 0 && minRout <= 100) {
		return fmt.Errorf("-min-routability %g: want a percentage in [0, 100]", minRout)
	}
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return err
	}
	cfg := bakeoff.Config{Topo: t, Seed: seed, Sim: sim, Bytes: bytes, SimStages: stages}
	if engines != "" {
		// bakeoff.Run builds every engine before any level runs, so a
		// typo reports the registered names up front.
		for _, name := range strings.Split(engines, ",") {
			cfg.Engines = append(cfg.Engines, strings.TrimSpace(name))
		}
	}
	doc, err := bakeoff.Run(cfg)
	if err != nil {
		return err
	}

	if out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		printTable(w, doc)
	}

	if minRout > 0 {
		for _, lv := range doc.Levels {
			for _, er := range lv.Engines {
				if er.Err != "" {
					return fmt.Errorf("level %s: engine %s failed: %s", lv.Name, er.Engine, er.Err)
				}
				if er.RoutabilityPct < minRout {
					return fmt.Errorf("level %s: engine %s routability %.2f%% below gate %.2f%%",
						lv.Name, er.Engine, er.RoutabilityPct, minRout)
				}
			}
		}
	}
	return nil
}

func printTable(out io.Writer, doc *schema.BakeoffDoc) {
	fmt.Fprintf(out, "# bake-off on %s (%d hosts, seed %d)\n", doc.Topology, doc.Hosts, doc.Seed)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "level\tfaults\tengine\troutability\tbroken\tmax-hsd\tavg-hsd\treroute")
	for _, lv := range doc.Levels {
		for _, er := range lv.Engines {
			if er.Err != "" {
				fmt.Fprintf(w, "%s\t%d\t%s\tERROR: %s\t\t\t\t\n", lv.Name, len(lv.FailedLinks), er.Engine, er.Err)
				continue
			}
			depth := ""
			if er.MaxQueueDepth >= 0 {
				depth = fmt.Sprintf("\tqdepth=%d", er.MaxQueueDepth)
			}
			fmt.Fprintf(w, "%s\t%d\t%s\t%.2f%%\t%d\t%d\t%.2f\t%dus%s\n",
				lv.Name, len(lv.FailedLinks), er.Engine, er.RoutabilityPct,
				er.BrokenPairs, er.MaxHSD, er.AvgMaxHSD, er.RerouteUS, depth)
		}
	}
	w.Flush()
}
