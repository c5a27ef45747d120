package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	rlft := func(extra ...string) []string { return append([]string{"-topo", "rlft2:4,8"}, extra...) }
	clitest.Run(t, "fthsd", setup, []clitest.Case{
		{Name: "shift-topology-324", Args: []string{"-topo", "324", "-cps", "shift", "-order", "topology"}},
		{Name: "shift-topology-324-dmodk", Golden: "shift-topology-324", Args: []string{"-topo", "324", "-cps", "shift", "-order", "topology", "-engine", "dmodk"}},
		{Name: "rd-random-x4", Args: []string{"-topo", "128", "-cps", "recursive-doubling", "-order", "random", "-seeds", "4"}},
		{Name: "stages-levels", Args: rlft("-cps", "shift", "-stages", "-levels")},
		{Name: "drop18-topo-aware", Args: []string{"-topo", "324", "-cps", "topo-aware", "-order", "topology", "-drop", "18"}},
		// Naming the default engine used to be refused with "-drop is
		// incompatible with -engine".
		{Name: "drop18-topo-aware-dmodk", Golden: "drop18-topo-aware", Args: []string{"-topo", "324", "-cps", "topo-aware", "-order", "topology", "-drop", "18", "-engine", "dmodk"}},
		{Name: "drop10-shift", Args: []string{"-topo", "324", "-cps", "shift", "-drop", "10"}},
		{Name: "drop-random-x3", Args: []string{"-topo", "324", "-cps", "shift", "-order", "random", "-seeds", "3", "-drop", "18", "-drop-seed", "5"}},
		{Name: "ring-adversarial", Args: []string{"-topo", "324", "-cps", "ring", "-order", "adversarial"}},
		{Name: "json-random", Args: rlft("-cps", "recursive-doubling", "-order", "random", "-json")},
		{Name: "smodk", Args: rlft("-engine", "smodk", "-cps", "shift")},
		{Name: "smodk-levels", Args: rlft("-engine", "smodk", "-cps", "shift", "-levels"), Exit: 1, Stderr: "fthsd: -levels needs forwarding tables; s-mod-k has no LFT realization"},
		{Name: "minhop-random-1", Args: rlft("-engine", "minhop-random", "-cps", "shift")},
		// Recorded with -drop-seed 7, which used to seed the engine; the
		// engine now takes the shared -seed and -drop-seed only draws.
		{Name: "minhop-random-7", Args: rlft("-engine", "minhop-random", "-cps", "shift", "-seed", "7")},
		{Name: "minhop-random-drop-seed", Golden: "minhop-random-1", Args: rlft("-engine", "minhop-random", "-cps", "shift", "-drop-seed", "7")},
		{Name: "nodetype-lb", Args: rlft("-engine", "nodetype-lb", "-cps", "shift", "-stages")},
		{Name: "smodk-drop", Args: rlft("-engine", "smodk", "-drop", "4"), Exit: 1, Stderr: "an active set requires dmodk"},
		{Name: "drop-all", Args: rlft("-drop", "32"), Exit: 1, Stderr: "cannot -drop 32 of 32 end-ports"},
		{Name: "bad-cps", Args: rlft("-cps", "nope"), Exit: 1, Stderr: `fthsd: mpi: unknown CPS kind "nope"`},
		{Name: "bad-order", Args: rlft("-order", "nope"), Exit: 1, Stderr: `fthsd: unknown ordering "nope"`},
		// -seeds 0 used to print a sweep of no orderings (mean HSD 0.000),
		// a result no fabric can produce.
		{Name: "zero-seeds", Args: rlft("-order", "random", "-seeds", "0"), Exit: 1, Stderr: "fthsd: -seeds 0: want at least one random ordering"},
		{Name: "negative-seeds", Args: rlft("-order", "random", "-seeds", "-2"), Exit: 1, Stderr: "fthsd: -seeds -2: want at least one random ordering"},
		{Name: "json-sweep", Args: rlft("-order", "random", "-seeds", "2", "-json"), Exit: 1, Stderr: "fthsd: -json needs a single ordering; use -seeds 1"},
		{Name: "adversarial-drop", Args: []string{"-topo", "324", "-order", "adversarial", "-drop", "18"}, Exit: 1, Stderr: "fthsd: adversarial ordering supports full population only"},
	})
}
