// Command ftgen builds a PGFT/RLFT topology and writes its description
// (header plus full link list) to stdout or a file.
//
// Usage:
//
//	ftgen -topo 324 [-o cluster.topo] [-summary]
//	ftgen -topo "pgft:2;4,4;1,2;1,2"
//	ftgen -topo "rlft3:18,6" -summary
package main

import (
	"fmt"
	"io"
	"os"

	"fattree/internal/cli"
)

func main() { os.Exit(cli.Main("ftgen", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec    = a.Topo("324")
		out     = a.Flags.String("o", "", "output file (default stdout)")
		summary = a.Flags.Bool("summary", false, "print structural summary instead of the link list")
	)
	a.Profile()
	return func(w io.Writer) error { return run(w, *spec, *out, *summary) }
}

func run(w io.Writer, spec, out string, summary bool) error {
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return err
	}
	g := t.Spec
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if summary {
		fmt.Fprintf(w, "%s\n", g)
		fmt.Fprintf(w, "hosts:    %d\n", t.NumHosts())
		for l := 1; l <= g.H; l++ {
			fmt.Fprintf(w, "level %d:  %d switches (%d down, %d up ports each)\n",
				l, g.NumSwitches(l), g.DownPorts(l), g.UpPorts(l))
		}
		fmt.Fprintf(w, "links:    %d\n", len(t.Links))
		if k, ok := g.IsRLFT(); ok {
			fmt.Fprintf(w, "RLFT:     yes (arity K=%d, switches have %d ports)\n", k, 2*k)
		} else {
			fmt.Fprintf(w, "RLFT:     no\n")
		}
		fmt.Fprintf(w, "CBB:      constant=%v\n", g.ConstantCBB())
		return nil
	}
	_, err = t.WriteTo(w)
	return err
}
