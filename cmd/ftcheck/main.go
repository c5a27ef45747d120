// Command ftcheck verifies the paper's theorems and construction rules
// against a concrete topology + routing + ordering instance and emits a
// schema-stamped fattree-check/v1 verdict. It is the CLI face of the
// internal/invariant catalog: topology wiring (Section IV.B), RLFT
// restrictions (IV.C), D-Mod-K shape and Theorem-2 down-path uniqueness
// (Section V), CPS structure (Section III) and the contention-freedom
// headline result (Theorem 1 / Section VII).
//
// Usage:
//
//	ftcheck -topo 324                                  # full catalog on the paper cluster
//	ftcheck -topo kary:4,3 -checks topo,route          # subset by kind prefix
//	ftcheck -topo 324 -engine minhop-random -json      # broken routing -> failing verdict
//	ftcheck -topo 324 -order random -seed 3            # shuffled ordering -> HSD > 1
//	ftcheck -topo 324 -fault-random 2                  # healthy tables over dead links -> route.alive fails
//	ftcheck -topo 324 -fault-random 2 -reroute         # the engine routes around them -> passes
//	ftcheck -rand 20 -seed 1                           # sweep 20 seeded random RLFTs
//	ftcheck -list                                      # catalog names and paper refs
//
// Exit status is 0 only when every selected check passes on the main
// instance and on every random-sweep draw.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fattree/internal/cli"
	"fattree/internal/engine"
	"fattree/internal/fabric"
	"fattree/internal/invariant"
	"fattree/internal/order"
	"fattree/internal/topo"
)

// document is the JSON verdict: the invariant report plus the fault and
// random-sweep context needed to reproduce it.
type document struct {
	*invariant.Report
	Faults []int                   `json:"faults,omitempty"`
	Rand   []invariant.RandVerdict `json:"rand,omitempty"`
}

func main() { os.Exit(cli.Main("ftcheck", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec      = a.Topo("324")
		engName   = a.Engine()
		ordering  = a.Flags.String("order", "topology", "ordering: topology | random | adversarial | cyclic")
		seed      = a.Seed(1, "seed for -order random, randomized engines, -fault-random and the -rand sweep base")
		checksArg = a.Flags.String("checks", "all", "comma-separated check names or kind prefixes (see -list)")
		randN     = a.Flags.Int("rand", 0, "also sweep this many seeded random RLFTs under compiled D-Mod-K")
		faultsArg = a.Flags.String("fault", "", "comma-separated link IDs to fail before checking")
		faultRand = a.Flags.Int("fault-random", 0, "fail this many random fabric links")
		reroute   = a.Flags.Bool("reroute", false, "hand the faults to the engine (its reroute, or its refusal of dead paths) instead of checking its healthy tables against them")
		jsonOut   = a.Flags.Bool("json", false, "emit the fattree-check/v1 verdict as JSON")
		list      = a.Flags.Bool("list", false, "list the check catalog and exit")
	)
	return func(w io.Writer) error {
		if *list {
			for _, c := range invariant.Catalog() {
				fmt.Fprintf(w, "%-24s %s\n", c.Name, c.Ref)
			}
			return nil
		}
		if *randN < 0 {
			return fmt.Errorf("-rand %d: want zero or more random RLFTs", *randN)
		}
		if *faultRand < 0 {
			return fmt.Errorf("-fault-random %d: want zero or more links", *faultRand)
		}
		ok, err := run(*spec, *engName, *ordering, *seed, *checksArg, *randN, *faultsArg, *faultRand, *reroute, *jsonOut, w)
		if err == nil && !ok {
			err = cli.ErrFailed
		}
		return err
	}
}

// run checks one instance (plus an optional random sweep) and reports
// whether everything passed. Errors are usage/build problems, not check
// failures.
func run(spec, engName, ordering string, seed int64, checksArg string, randN int, faultsArg string, faultRand int, reroute, jsonOut bool, w io.Writer) (bool, error) {
	checks, err := invariant.Select(checksArg)
	if err != nil {
		return false, err
	}
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return false, err
	}

	in, faults, err := buildInstance(t, engName, ordering, seed, faultsArg, faultRand, reroute)
	if err != nil {
		return false, err
	}
	rep := invariant.Run(in, checks)
	doc := &document{Report: rep, Faults: faults}

	if randN > 0 {
		doc.Rand = invariant.SweepRandom(seed, randN, checks, func(rg topo.PGFT) (*invariant.Instance, error) {
			rt, err := topo.Build(rg)
			if err != nil {
				return nil, err
			}
			tb, err := engine.Resolve("", rt, engine.Options{}, nil)
			if err != nil {
				return nil, err
			}
			return invariant.NewInstance(rt, tb.Compiled, nil), nil
		})
	}

	pass := rep.Pass
	for _, v := range doc.Rand {
		if !v.Pass || v.Error != "" {
			pass = false
		}
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return pass, enc.Encode(doc)
	}
	printText(w, doc, pass)
	return pass, nil
}

// buildInstance assembles the system under check: topology, the engine's
// tables and the ordering. Without -reroute the engine never hears of
// the faults: its healthy tables are checked against the dead links,
// which is exactly what route.alive is for. With it the engine gets the
// fault set and answers with its own handling.
func buildInstance(t *topo.Topology, engName, ordering string, seed int64, faultsArg string, faultRand int, reroute bool) (*invariant.Instance, []int, error) {
	fs := fabric.NewFaultSet(t)
	if faultsArg != "" {
		for _, f := range strings.Split(faultsArg, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, nil, fmt.Errorf("bad -fault entry %q: %v", f, err)
			}
			if id < 0 || id >= len(t.Links) {
				return nil, nil, fmt.Errorf("-fault link %d out of range [0,%d)", id, len(t.Links))
			}
			fs.Fail(topo.LinkID(id))
		}
	}
	if faultRand > 0 {
		if err := fs.FailRandomFabricLinks(faultRand, seed); err != nil {
			return nil, nil, err
		}
	}
	var faults []int
	for _, l := range fs.FailedLinks() {
		faults = append(faults, int(l))
	}

	var efs *fabric.FaultSet
	if reroute {
		efs = fs
	}
	tb, err := engine.Resolve(engName, t, engine.Options{Seed: seed}, efs)
	if err != nil {
		return nil, nil, err
	}
	o, err := order.ByName(ordering, t, nil, seed)
	if err != nil {
		return nil, nil, err
	}
	in := invariant.NewInstance(t, tb.Compiled, o)
	if len(tb.Unroutable) > 0 {
		unroutable := make(map[int]bool, len(tb.Unroutable))
		for _, j := range tb.Unroutable {
			unroutable[j] = true
		}
		in.Unroutable = func(j int) bool { return unroutable[j] }
	}
	if len(faults) > 0 {
		in.Alive = fs.Alive
	}
	return in, faults, nil
}

func printText(w io.Writer, doc *document, pass bool) {
	rep := doc.Report
	fmt.Fprintf(w, "%s  hosts %d  routing %s  ordering %s\n", rep.Topology, rep.Hosts, rep.Routing, rep.Ordering)
	if len(doc.Faults) > 0 {
		fmt.Fprintf(w, "faulted links: %v\n", doc.Faults)
	}
	for _, c := range rep.Checks {
		switch c.Status {
		case invariant.Pass:
			fmt.Fprintf(w, "  PASS %-24s %s\n", c.Name, c.Ref)
		case invariant.Skip:
			fmt.Fprintf(w, "  SKIP %-24s %s\n", c.Name, c.SkipReason)
		case invariant.Fail:
			fmt.Fprintf(w, "  FAIL %-24s %s\n", c.Name, c.Error)
			if cx := c.Counterexample; cx != nil {
				fmt.Fprintf(w, "       counterexample: %s\n", cxString(cx))
			}
		}
	}
	fmt.Fprintf(w, "%d passed, %d failed, %d skipped\n", rep.Passed, rep.Failed, rep.Skipped)
	for _, v := range doc.Rand {
		switch {
		case v.Error != "":
			fmt.Fprintf(w, "rand seed %d %s: build error: %s\n", v.Seed, v.Spec, v.Error)
		case v.Pass:
			fmt.Fprintf(w, "rand seed %d %s (%d hosts): pass\n", v.Seed, v.Spec, v.Hosts)
		default:
			fmt.Fprintf(w, "rand seed %d %s (%d hosts): FAIL %s, shrunk to %s\n",
				v.Seed, v.Spec, v.Hosts, strings.Join(v.Failed, ","), v.ShrunkSpec)
			if v.Counterexample != nil {
				fmt.Fprintf(w, "       counterexample: %s\n", cxString(v.Counterexample))
			}
		}
	}
	if pass {
		fmt.Fprintln(w, "ok")
	} else {
		fmt.Fprintln(w, "FAILED")
	}
}

// cxString renders a counterexample on one line.
func cxString(cx *invariant.Counterexample) string {
	var parts []string
	if cx.Spec != "" {
		parts = append(parts, "spec "+cx.Spec)
	}
	if len(cx.Pair) == 2 {
		parts = append(parts, fmt.Sprintf("pair %d->%d", cx.Pair[0], cx.Pair[1]))
	}
	if cx.Sequence != "" {
		parts = append(parts, "sequence "+cx.Sequence)
	}
	if cx.Stage != nil {
		parts = append(parts, fmt.Sprintf("stage %d", *cx.Stage))
	}
	if cx.Link != nil {
		parts = append(parts, fmt.Sprintf("link %d load %d", *cx.Link, cx.Load))
	}
	if len(cx.Flows) > 0 {
		parts = append(parts, fmt.Sprintf("flows %v", cx.Flows))
	}
	if cx.Detail != "" {
		parts = append(parts, cx.Detail)
	}
	return strings.Join(parts, "; ")
}
