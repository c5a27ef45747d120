package topo_test

import (
	"testing"

	"fattree/internal/invariant"
	"fattree/internal/topo"
)

// TestBuildMatchesPerNodeDraws holds Build to the per-node builder on the
// seeded RandPGFT draws (multi-uplink and parallel-port shapes included)
// and RandRLFT draws the property sweeps use.
func TestBuildMatchesPerNodeDraws(t *testing.T) {
	parallel := 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, g := range []topo.PGFT{invariant.RandPGFT(seed), invariant.RandRLFT(seed)} {
			topo.SameAsPerNode(t, g)
			for _, p := range g.P {
				if p > 1 {
					parallel++
					break
				}
			}
		}
	}
	if parallel == 0 {
		t.Fatal("no draw has parallel ports")
	}
}
