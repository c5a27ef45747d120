package main

import (
	"io"
	"testing"

	"fattree/internal/cli/clitest"
)

func TestGolden(t *testing.T) {
	clitest.Run(t, "ftdesign", setup, []clitest.Case{
		{Name: "nodes-1900", Args: []string{"-nodes", "1900", "-ports", "36"}},
		{Name: "nodes-200-2level", Args: []string{"-nodes", "200", "-ports", "24", "-max-levels", "2"}},
		{Name: "nodes-500-2level", Args: []string{"-nodes", "500", "-ports", "24", "-max-levels", "2"}, Exit: 1,
			Stderr: "ftdesign: no RLFT built from 24-port switches fits 500 nodes within 2 levels (max 288)"},
		{Name: "odd-ports", Args: []string{"-nodes", "10", "-ports", "35"}, Exit: 1, Stderr: "ftdesign: switch port count must be a positive even number, got 35"},
	})
}

func TestEnumerateFindsPaperCluster(t *testing.T) {
	// 1900 nodes on 36-port switches: the tightest option must be the
	// paper's 1944-node RLFT.
	opts := enumerate(1900, 18, 3)
	if len(opts) == 0 {
		t.Fatal("no options")
	}
	best := opts[0]
	if best.g.NumHosts() != 1944 || best.spare != 44 {
		t.Errorf("best option = %v (%d hosts, %d spare), want the 1944-node RLFT",
			best.g, best.g.NumHosts(), best.spare)
	}
}

func TestEnumerateSmall(t *testing.T) {
	// 20 nodes on 8-port switches: a 2-level option must exist; single
	// switch cannot fit 20 > 2K=8.
	opts := enumerate(20, 4, 3)
	if len(opts) == 0 {
		t.Fatal("no options")
	}
	for _, o := range opts {
		if o.g.NumHosts() < 20 {
			t.Errorf("option %v too small", o.g)
		}
		if o.levels == 1 {
			t.Errorf("single switch cannot host 20 nodes on 8 ports")
		}
	}
	// Tiny cluster gets the single-switch option.
	tiny := enumerate(6, 4, 3)
	found := false
	for _, o := range tiny {
		if o.levels == 1 {
			found = true
		}
	}
	if !found {
		t.Error("6 nodes on 8-port switches should offer a single switch")
	}
}

func TestEnumerateRespectsMaxLevels(t *testing.T) {
	for _, o := range enumerate(100, 4, 2) {
		if o.levels > 2 {
			t.Errorf("option %v exceeds max levels", o.g)
		}
	}
	// 100 nodes cannot fit on 8-port switches within 2 levels (max 32).
	if opts := enumerate(100, 4, 2); len(opts) != 0 {
		t.Errorf("impossible request produced %d options", len(opts))
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, 0, 36, 3); err == nil {
		t.Error("zero nodes accepted")
	}
	if err := run(io.Discard, 10, 35, 3); err == nil {
		t.Error("odd port count accepted")
	}
	if err := run(io.Discard, 1<<20, 8, 3); err == nil {
		t.Error("impossible size accepted")
	}
}

func TestMaxCapacity(t *testing.T) {
	if got := maxCapacity(4, 1); got != 8 {
		t.Errorf("1-level capacity = %d, want 8", got)
	}
	if got := maxCapacity(4, 2); got != 32 {
		t.Errorf("2-level capacity = %d, want 32", got)
	}
	if got := maxCapacity(18, 3); got != 11664 {
		t.Errorf("3-level capacity = %d, want 11664", got)
	}
}
