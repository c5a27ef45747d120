// Command ftviz renders fat-tree topologies: Graphviz DOT for drawing,
// optionally annotated with per-link flow counts of a traffic stage, or
// the paper's Figure 1-style per-leaf up-port listing.
//
// Usage:
//
//	ftviz -topo "pgft:2;4,4;1,2;1,2" -dot > tree.dot
//	ftviz -topo "pgft:2;4,4;1,2;1,2" -dot -shift 4 -order random -seed 2
//	ftviz -topo "pgft:2;4,4;1,2;1,2" -fig1 -shift 4 -order topology
package main

import (
	"fmt"
	"io"
	"os"

	"fattree/internal/cli"
	"fattree/internal/engine"
	"fattree/internal/hsd"
	"fattree/internal/order"
	"fattree/internal/viz"
)

func main() { os.Exit(cli.Main("ftviz", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec     = a.Topo("pgft:2;4,4;1,2;1,2")
		dot      = a.Flags.Bool("dot", false, "emit Graphviz DOT")
		fig1     = a.Flags.Bool("fig1", false, "emit the Figure 1-style leaf/up-port listing")
		shift    = a.Flags.Int("shift", 0, "annotate with the displacement-d permutation's link loads (0 = none)")
		ordering = a.Flags.String("order", "topology", "ordering: topology | random | adversarial | cyclic")
		seed     = a.Seed(0, "random-ordering seed")
	)
	a.Profile()
	return func(w io.Writer) error { return run(w, *spec, *dot, *fig1, *shift, *ordering, *seed) }
}

func run(w io.Writer, spec string, dot, fig1 bool, shift int, ordering string, seed int64) error {
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return err
	}
	tb, err := engine.Resolve("", t, engine.Options{}, nil)
	if err != nil {
		return err
	}
	o, err := order.ByName(ordering, t, nil, seed)
	if err != nil {
		return err
	}
	n := t.NumHosts()
	if shift < 0 || shift >= n {
		return fmt.Errorf("-shift %d: want a displacement in [0, %d), 0 for none", shift, n)
	}

	var pairs [][2]int
	if shift > 0 {
		for r := 0; r < n; r++ {
			pairs = append(pairs, [2]int{o.HostOf[r], o.HostOf[(r+shift)%n]})
		}
	}

	if fig1 {
		if pairs == nil {
			return fmt.Errorf("-fig1 needs -shift")
		}
		return viz.Figure1Style(w, tb.LFT, pairs)
	}
	if !dot {
		return fmt.Errorf("pick -dot or -fig1")
	}
	opts := viz.DOTOptions{RankPerLevel: true}
	if pairs != nil {
		a := hsd.NewAnalyzer(tb.Compiled)
		if _, err := a.Stage(pairs); err != nil {
			return err
		}
		up, down := a.LinkLoads(nil, nil)
		opts.UpLoads, opts.DownLoads = up, down
		opts.HotThreshold = 2
	}
	return viz.WriteDOT(w, t, opts)
}
