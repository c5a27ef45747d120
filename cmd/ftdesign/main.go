// Command ftdesign is a capacity planner: given a desired node count and
// a switch port count, it enumerates the Real-Life Fat-Tree
// configurations that can host it, with their hardware bills (switches,
// cables), allocation granules and spare capacity — the decision a
// cluster architect makes before anything in this repository runs.
//
// Usage:
//
//	ftdesign -nodes 1900 -ports 36
//	ftdesign -nodes 500 -ports 24 -max-levels 2
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"fattree/internal/cli"
	"fattree/internal/topo"
)

func main() { os.Exit(cli.Main("ftdesign", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		nodes     = a.Flags.Int("nodes", 324, "required end-port count")
		ports     = a.Flags.Int("ports", 36, "switch port count (2K)")
		maxLevels = a.Flags.Int("max-levels", 3, "maximum tree levels to consider")
	)
	a.Profile()
	return func(w io.Writer) error { return run(w, *nodes, *ports, *maxLevels) }
}

type option struct {
	g      topo.PGFT
	spare  int
	levels int
}

func run(out io.Writer, nodes, ports, maxLevels int) error {
	if nodes < 1 {
		return fmt.Errorf("need a positive node count")
	}
	if ports < 2 || ports%2 != 0 {
		return fmt.Errorf("switch port count must be a positive even number, got %d", ports)
	}
	k := ports / 2
	opts := enumerate(nodes, k, maxLevels)
	if len(opts) == 0 {
		return fmt.Errorf("no RLFT built from %d-port switches fits %d nodes within %d levels (max %d)",
			ports, nodes, maxLevels, maxCapacity(k, maxLevels))
	}

	fmt.Fprintf(out, "RLFT options for >= %d nodes on %d-port switches (K=%d):\n\n", nodes, ports, k)
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "topology\tnodes\tspare\tlevels\tswitches\tcables\tgranule\tdiameter")
	for _, o := range opts {
		t, err := topo.Build(o.g)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			o.g, o.g.NumHosts(), o.spare, o.levels,
			o.g.TotalSwitches(), len(t.Links), o.g.AllocationGranule(), o.g.Diameter())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nreading: pick the smallest spare that meets growth plans; allocate jobs in")
	fmt.Fprintln(out, "multiples of the granule to keep the contention-free guarantee (see README).")
	return nil
}

// enumerate lists the RLFT2/RLFT3 shapes holding at least `nodes` hosts,
// smallest first, deduplicated by capacity per level count.
func enumerate(nodes, k, maxLevels int) []option {
	var out []option
	if maxLevels >= 2 {
		for leaves := 1; leaves <= 2*k; leaves++ {
			g, err := topo.RLFT2(k, leaves)
			if err != nil {
				continue
			}
			if g.NumHosts() >= nodes {
				out = append(out, option{g: g, spare: g.NumHosts() - nodes, levels: 2})
			}
		}
	}
	if maxLevels >= 3 {
		for groups := 1; groups <= 2*k; groups++ {
			g, err := topo.RLFT3(k, groups)
			if err != nil {
				continue
			}
			if g.NumHosts() >= nodes {
				out = append(out, option{g: g, spare: g.NumHosts() - nodes, levels: 3})
			}
		}
	}
	// Single switch covers tiny clusters.
	if nodes <= 2*k {
		if g, err := topo.NewPGFT(1, []int{2 * k}, []int{1}, []int{1}); err == nil {
			out = append(out, option{g: g, spare: 2*k - nodes, levels: 1})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].spare != out[j].spare {
			return out[i].spare < out[j].spare
		}
		return out[i].levels < out[j].levels
	})
	// Keep the best few per level count.
	perLevel := map[int]int{}
	var trimmed []option
	for _, o := range out {
		if perLevel[o.levels] < 3 {
			trimmed = append(trimmed, o)
			perLevel[o.levels]++
		}
	}
	return trimmed
}

func maxCapacity(k, maxLevels int) int {
	best := 2 * k
	if maxLevels >= 2 {
		best = 2 * k * k
	}
	if maxLevels >= 3 {
		best = 2 * k * k * k
	}
	return best
}
