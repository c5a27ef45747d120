package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	rlft := func(extra ...string) []string { return append([]string{"-topo", "rlft2:4,8"}, extra...) }
	clitest.Run(t, "ftsim", setup, []clitest.Case{
		{Name: "ring-topology", Args: rlft("-cps", "ring", "-bytes", "4096")},
		{Name: "ring-topology-dmodk", Golden: "ring-topology", Args: rlft("-cps", "ring", "-bytes", "4096", "-engine", "dmodk")},
		{Name: "shift-random-sampled", Args: []string{"-topo", "128", "-cps", "shift", "-order", "random", "-seed", "3", "-sample", "4", "-bytes", "8192"}},
		{Name: "topo-aware-barrier", Args: rlft("-cps", "topo-aware", "-mode", "barrier", "-bytes", "4096")},
		{Name: "ring-adversarial-dependent", Args: []string{"-topo", "324", "-cps", "ring", "-order", "adversarial", "-mode", "dependent", "-bytes", "2048"}},
		{Name: "smodk", Args: rlft("-engine", "smodk", "-cps", "shift", "-bytes", "4096")},
		{Name: "minhop-random-7", Args: rlft("-engine", "minhop-random", "-seed", "7", "-cps", "shift", "-order", "random", "-bytes", "4096")},
		{Name: "bad-mode", Args: rlft("-mode", "nope"), Exit: 1, Stderr: `ftsim: unknown mode "nope"`},
		{Name: "bad-order", Args: rlft("-order", "nope"), Exit: 1, Stderr: `ftsim: unknown ordering "nope"`},
		{Name: "bad-cps", Args: rlft("-cps", "nope"), Exit: 1, Stderr: `ftsim: mpi: unknown CPS kind "nope"`},
		// A negative -sample used to simulate the whole sequence silently.
		{Name: "negative-sample", Args: rlft("-sample", "-3"), Exit: 1, Stderr: "ftsim: -sample -3: want 0 (all stages) or a positive stage count"},
	})
}
