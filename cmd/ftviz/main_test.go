package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	clitest.Run(t, "ftviz", setup, []clitest.Case{
		{Name: "dot", Args: []string{"-dot"}},
		{Name: "dot-shift-random", Args: []string{"-dot", "-shift", "4", "-order", "random", "-seed", "2"}},
		{Name: "fig1", Args: []string{"-fig1", "-shift", "4", "-order", "topology"}},
		{Name: "no-mode", Exit: 1, Stderr: "ftviz: pick -dot or -fig1"},
		{Name: "fig1-no-shift", Args: []string{"-fig1"}, Exit: 1, Stderr: "ftviz: -fig1 needs -shift"},
		{Name: "negative-shift", Args: []string{"-dot", "-shift", "-4"}, Exit: 1, Stderr: "ftviz: -shift -4: want a displacement in [0, 16), 0 for none"},
		{Name: "shift-out-of-range", Args: []string{"-topo", "128", "-dot", "-shift", "999"}, Exit: 1, Stderr: "ftviz: -shift 999: want a displacement in [0, 128), 0 for none"},
		{Name: "bad-order", Args: []string{"-dot", "-order", "nope"}, Exit: 1, Stderr: `ftviz: unknown ordering "nope"`},
	})
}
