package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	clitest.Run(t, "ftbench", setup, []clitest.Case{
		{Name: "f1-f3-quick", Args: []string{"-exp", "f1,f3", "-quick"}},
		{Name: "f1-f3-quick-csv", Args: []string{"-exp", "f1,f3", "-quick", "-csv"}},
		{Name: "f1-f3-quick-json", Args: []string{"-exp", "f1,f3", "-quick", "-json"}},
		{Name: "bad-exp", Args: []string{"-exp", "nope"}, Exit: 1, Stderr: `ftbench: no experiment matched "nope"`},
		{Name: "bad-exp-in-list", Args: []string{"-exp", "f1,nope"}, Exit: 1, Stderr: `ftbench: no experiment matched "nope" (want one or more of f1,f2,f3,t3,`},
		// A negative -progress used to mean "off" silently.
		{Name: "negative-progress", Args: []string{"-exp", "f1", "-progress", "-1s"}, Exit: 1, Stderr: "ftbench: -progress -1s: want 0 (off) or a positive interval"},
	})
}
