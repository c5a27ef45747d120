// Command ftfabric exercises the InfiniBand management-plane emulation:
// fabric discovery (ibnetdiscover-style inventory), OpenSM-style LFT
// dumps, and link-fault rerouting reports.
//
// Usage:
//
//	ftfabric -topo 324 -discover
//	ftfabric -topo 324 -dump-lfts > lfts.txt
//	ftfabric -topo 324 -fail 4 -seed 2 -report
//	ftfabric -topo 324 -discover -fail 4 -report -json
//
// With -json the discover/fault/report results are emitted as one
// schema-stamped fattree-fabric/v1 document instead of text, following
// the fthsd -json convention.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"fattree/internal/cli"
	"fattree/internal/cps"
	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/hsd"
	"fattree/internal/order"
)

func main() { os.Exit(cli.Main("ftfabric", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec     = a.Topo("324")
		discover = a.Flags.Bool("discover", false, "sweep the fabric and print the inventory")
		dumpLFTs = a.Flags.Bool("dump-lfts", false, "print OpenSM-style forwarding tables")
		fail     = a.Flags.Int("fail", 0, "kill this many random fabric links, reroute and report")
		seed     = a.Seed(1, "fault-draw seed")
		report   = a.Flags.Bool("report", false, "analyze Shift HSD on the (re)routed fabric")
		jsonOut  = a.Flags.Bool("json", false, "emit a fattree-fabric/v1 JSON document instead of text")
	)
	a.Profile()
	return func(w io.Writer) error {
		if *fail < 0 {
			return fmt.Errorf("-fail %d: want zero or more links", *fail)
		}
		if !*discover && !*dumpLFTs && *fail <= 0 && !*report && !*jsonOut {
			a.Flags.Usage()
			return nil
		}
		return run(w, *spec, *discover, *dumpLFTs, *fail, *seed, *report, *jsonOut)
	}
}

// run emits the selected sections; bare -json is itself an action: the
// base fabric document (topology + routing identity), no optional parts.
func run(w io.Writer, spec string, discover, dumpLFTs bool, fail int, seed int64, report, jsonOut bool) error {
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return err
	}
	sn := fabric.NewSubnet(t)
	doc := fabric.NewDoc(t)

	if discover {
		inv, err := sn.Discover()
		if err != nil {
			return err
		}
		doc.SetInventory(inv)
		if !jsonOut {
			fmt.Fprintf(w, "fabric %s: %d hosts, %d switches, %d links\n", t.Spec, inv.Hosts, inv.Switches, inv.Links)
			for _, guid := range inv.SortedSwitchGUIDs() {
				fmt.Fprintf(w, "  switch 0x%016x: %d connected ports\n", uint64(guid), inv.PortsBySwitch[guid])
			}
		}
	}

	var fs *fabric.FaultSet
	if fail > 0 {
		fs = fabric.NewFaultSet(t)
		if err := fs.FailRandomFabricLinks(fail, seed); err != nil {
			return err
		}
	}
	tb, err := engine.Resolve("", t, engine.Options{}, fs)
	if err != nil {
		return err
	}
	if fs != nil {
		doc.SetFaults(fs, fabric.RerouteResult{UnroutableHosts: tb.Unroutable, BrokenPairs: tb.BrokenPairs})
		if !jsonOut {
			fmt.Fprintf(w, "rerouted around %d dead links: %d unroutable hosts, %d broken pairs\n",
				fs.Failed(), len(tb.Unroutable), tb.BrokenPairs)
		}
	}
	doc.Routing = tb.LFT.Name

	if dumpLFTs {
		if jsonOut {
			return fmt.Errorf("-dump-lfts has its own text format; drop -json")
		}
		st := sn.Program(tb.LFT)
		if err := st.WriteLFTs(w); err != nil {
			return err
		}
	}
	if report {
		// Shift under the topology order over the pairs the (re)routed
		// fabric still delivers.
		n := t.NumHosts()
		rep, err := hsd.Analyze(tb.Compiled, order.Topology(n, nil), cps.Shift(n))
		if err != nil {
			return err
		}
		doc.HSD = &fabric.HSDDoc{
			Sequence:       rep.Sequence,
			Ordering:       rep.Ordering,
			Stages:         len(rep.Stages),
			MaxHSD:         rep.MaxHSD(),
			AvgMaxHSD:      rep.AvgMaxHSD(),
			ContentionFree: rep.ContentionFree(),
		}
		if !jsonOut {
			fmt.Fprintf(w, "shift under %s + topology order: max HSD %d, avg max HSD %.3f, contention-free %v\n",
				tb.LFT.Name, rep.MaxHSD(), rep.AvgMaxHSD(), rep.ContentionFree())
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	return nil
}
