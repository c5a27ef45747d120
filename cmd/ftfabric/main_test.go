package main

import (
	"testing"

	"fattree/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	rlft := func(extra ...string) []string { return append([]string{"-topo", "rlft2:4,8"}, extra...) }
	clitest.Run(t, "ftfabric", setup, []clitest.Case{
		{Name: "discover", Args: rlft("-discover")},
		{Name: "fail-report-324", Args: []string{"-topo", "324", "-fail", "4", "-seed", "2", "-report"}},
		{Name: "fail-report-json", Args: rlft("-fail", "2", "-report", "-json")},
		{Name: "discover-fail-report-json", Args: rlft("-discover", "-fail", "3", "-seed", "5", "-report", "-json")},
		{Name: "report-healthy", Args: rlft("-report")},
		{Name: "dump-lfts", Args: rlft("-dump-lfts")},
		{Name: "dump-lfts-faulted", Args: rlft("-fail", "2", "-dump-lfts")},
		{Name: "bare-json", Args: rlft("-json")},
		{Name: "dump-lfts-json", Args: rlft("-dump-lfts", "-json"), Exit: 1, Stderr: "ftfabric: -dump-lfts has its own text format; drop -json"},
		{Name: "no-action", Args: rlft(), Stderr: "Usage of ftfabric:"},
		{Name: "too-many-faults", Args: rlft("-fail", "9999"), Exit: 1, Stderr: "ftfabric: "},
		{Name: "negative-fail", Args: rlft("-fail", "-3"), Exit: 1, Stderr: "ftfabric: -fail -3: want zero or more links"},
	})
}
