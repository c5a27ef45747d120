package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	clitest.Run(t, "ftgen", setup, []clitest.Case{
		{Name: "summary-324", Args: []string{"-topo", "324", "-summary"}},
		{Name: "summary-pgft", Args: []string{"-topo", "pgft:2;4,4;1,2;1,2", "-summary"}},
		{Name: "links-rlft2", Args: []string{"-topo", "rlft2:4,8"}},
		{Name: "bad-spec", Args: []string{"-topo", "nope"}, Exit: 1, Stderr: `ftgen: topo: unrecognized spec "nope"`},
		{Name: "bad-flag", Args: []string{"-nope"}, Exit: 2, Stderr: "flag provided but not defined"},
	})
}
