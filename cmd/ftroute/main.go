// Command ftroute computes forwarding tables for a fat-tree and either
// dumps them (like dump_lfts.sh would for an InfiniBand fabric), verifies
// their correctness, or traces a single source-destination path. -verify
// runs ftcheck's route.total, route.updown and route.minimal checks on
// the tables' compiled path arena — every pair delivered over a minimal
// up*/down* path, read by tails through the one served-path walker the
// daemon's snapshot gate also reads — with route.compiled-equiv holding
// the arena to the tables, and prints the Theorem 2 tally's count of
// down ports carrying more than one destination.
//
// Usage:
//
//	ftroute -topo 324 -engine dmodk -verify
//	ftroute -topo 324 -trace 0,323
//	ftroute -topo "pgft:2;4,4;1,2;1,2" -dump | head
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fattree/internal/cli"
	"fattree/internal/engine"
	"fattree/internal/invariant"
	"fattree/internal/topo"
)

func main() { os.Exit(cli.Main("ftroute", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec    = a.Topo("324")
		engName = a.Engine()
		seed    = a.Seed(1, "seed for randomized engines")
		verify  = a.Flags.Bool("verify", false, "verify delivery, minimality and up*/down* shape")
		dump    = a.Flags.Bool("dump", false, "dump the forwarding tables")
		trace   = a.Flags.String("trace", "", "trace a path: src,dst")
		active  = a.Flags.String("active", "", "comma-separated active end-ports for rank-compacted d-mod-k (partial job)")
	)
	a.Profile()
	return func(w io.Writer) error { return run(w, *spec, *engName, *seed, *verify, *dump, *trace, *active) }
}

func run(out io.Writer, spec, engName string, seed int64, verify, dump bool, trace, activeList string) error {
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return err
	}
	g := t.Spec
	var active []int
	if activeList != "" {
		for _, f := range strings.Split(activeList, ",") {
			h, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad -active entry %q: %v", f, err)
			}
			active = append(active, h)
		}
	}
	tb, err := engine.Resolve(engName, t, engine.Options{Seed: seed, Active: active}, nil)
	if err != nil {
		return err
	}
	lft := tb.LFT
	if lft == nil {
		return fmt.Errorf("engine %q has no forwarding-table realization to verify or dump", engName)
	}
	did := false
	if verify {
		did = true
		checks, err := invariant.Select("route.total,route.updown,route.minimal,route.compiled-equiv")
		if err != nil {
			return err
		}
		for _, res := range invariant.Run(invariant.NewInstance(t, tb.Compiled, nil), checks).Checks {
			if res.Status == invariant.Fail {
				if d := res.Counterexample.Detail; d != "" {
					return fmt.Errorf("%s: %s: %s", res.Name, res.Error, d)
				}
				return fmt.Errorf("%s: %s", res.Name, res.Error)
			}
		}
		conflicts, _ := invariant.DownPortConflicts(t, tb.Compiled)
		fmt.Fprintf(out, "%s on %s: all %d^2 pairs verified, %d down-port conflicts\n",
			lft.Name, g, t.NumHosts(), conflicts)
	}
	if trace != "" {
		did = true
		s, d, _ := strings.Cut(trace, ",") // no comma: d is empty and fails to parse
		src, err1 := strconv.Atoi(s)
		dst, err2 := strconv.Atoi(d)
		if n := t.NumHosts(); err1 != nil || err2 != nil || src < 0 || src >= n || dst < 0 || dst >= n {
			return fmt.Errorf("trace wants src,dst with hosts in [0,%d), not -trace %q", n, trace)
		}
		hops, err := lft.Trace(src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d -> %d (%d hops):\n", src, dst, len(hops))
		for i, h := range hops {
			lk := &t.Links[h.Link]
			lo := t.Node(t.Ports[lk.Lower].Node)
			up := t.Node(t.Ports[lk.Upper].Node)
			dir := "up  "
			if !h.Up {
				dir = "down"
			}
			fmt.Fprintf(out, "  %2d %s %v <-> %v\n", i, dir, lo, up)
		}
	}
	if dump || !did {
		w := bufio.NewWriter(out)
		defer w.Flush()
		fmt.Fprintf(w, "# %s forwarding tables for %s\n", lft.Name, g)
		for l := 1; l <= g.H; l++ {
			for _, id := range t.ByLevel[l] {
				n := t.Node(id)
				fmt.Fprintf(w, "switch %v\n", n)
				for dst := 0; dst < t.NumHosts(); dst++ {
					p := lft.OutPort(id, dst)
					if p == topo.None {
						continue
					}
					port := t.Ports[p]
					tag := 'u'
					if port.Dir == topo.Down {
						tag = 'd'
					}
					fmt.Fprintf(w, "  dst %4d -> %c%d\n", dst, tag, port.Num)
				}
			}
		}
	}
	return nil
}
