package main

import (
	"testing"

	"fattree/internal/cli/clitest"
	"fattree/internal/topo"
)

func TestGolden(t *testing.T) {
	clitest.Run(t, "ftorder", setup, []clitest.Case{
		{Name: "rankfile-rlft2", Args: []string{"-topo", "rlft2:4,8"}},
		{Name: "job-162", Args: []string{"-topo", "324", "-job", "162"}},
		{Name: "job-100", Args: []string{"-topo", "324", "-job", "100"}, Stderr: "ftorder: warning: 100 is not a multiple of the allocation granule 18"},
		{Name: "drop-18", Args: []string{"-topo", "324", "-drop", "18", "-drop-seed", "3"}},
		{Name: "hostlist", Args: []string{"-topo", "rlft2:4,8", "-format", "hostlist"}},
		{Name: "bad-format", Args: []string{"-topo", "rlft2:4,8", "-format", "nope"}, Exit: 1, Stderr: `ftorder: unknown format "nope"`},
		{Name: "negative-job", Args: []string{"-topo", "rlft2:4,8", "-job", "-5"}, Exit: 1, Stderr: "ftorder: -job -5: want a job size, or 0 for the whole cluster"},
	})
}

func TestHostName(t *testing.T) {
	g := topo.Cluster324 // 18 hosts per leaf
	cases := map[int]string{
		0:   "node000-00",
		17:  "node000-17",
		18:  "node001-00",
		323: "node017-17",
	}
	for h, want := range cases {
		if got := hostName(g, h); got != want {
			t.Errorf("hostName(%d) = %q, want %q", h, got, want)
		}
	}
}

func TestHostNamesUnique(t *testing.T) {
	g := topo.Cluster128
	seen := make(map[string]bool)
	for h := 0; h < g.NumHosts(); h++ {
		name := hostName(g, h)
		if seen[name] {
			t.Fatalf("duplicate host name %q", name)
		}
		seen[name] = true
	}
}
