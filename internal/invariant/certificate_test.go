package invariant

import (
	"fmt"
	"testing"

	"fattree/internal/route"
	"fattree/internal/topo"
)

// TestClimbCertificateAgreesWithTally checks the Theorem 2 certificate a
// compiled arena carries (route.Compiled.ClimbWidth, read off the tables'
// closed form) against DownPortConflicts, which walks the forwarding
// tables hop by hop — the two share no code. A certified arena must tally
// no conflict; D-Mod-K must certify every seeded RLFT and paper cluster.
// Seeded PGFTs (hosts with several uplinks among them), rank-compacted
// partial jobs and the naive variant may go either way.
func TestClimbCertificateAgreesWithTally(t *testing.T) {
	type tables struct {
		lft  *route.LFT
		must bool // D-Mod-K on an RLFT: must certify
	}
	var all []tables
	for seed := int64(1); seed <= 12; seed++ {
		for _, g := range []topo.PGFT{RandRLFT(seed), RandPGFT(seed)} {
			tp := topo.MustBuild(g)
			_, rlft := g.IsRLFT()
			all = append(all, tables{route.DModK(tp), rlft}, tables{route.DModKNaive(tp), false})
			n := tp.NumHosts()
			var active []int
			for h := 0; h < n; h += 1 + int(seed)%3 {
				active = append(active, h)
			}
			partial, err := route.DModKActive(tp, active)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, tables{partial, false})
		}
	}
	for _, g := range []topo.PGFT{topo.Cluster128, topo.Cluster324, topo.Cluster1944} {
		all = append(all, tables{route.DModK(topo.MustBuild(g)), true})
	}
	certified, multi := 0, 0
	for _, tb := range all {
		name := fmt.Sprintf("%v %s", tb.lft.T.Spec, tb.lft.Name)
		c, err := route.Compile(tb.lft)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ok := c.ClimbWidth() > 0
		if tb.must && !ok {
			t.Errorf("%s: not certified, want Theorem 2 certified", name)
		}
		if !ok {
			continue
		}
		certified++
		if tb.lft.T.Spec.UpPorts(0) > 1 {
			multi++
		}
		if n, first := DownPortConflicts(tb.lft.T, tb.lft); n != 0 {
			t.Errorf("%s: certified, but %d down ports carry two destinations: %s", name, n, first.Error)
		}
	}
	if certified == 0 || multi == 0 {
		t.Fatalf("the sweep certified %d arenas, %d of them with multi-uplink hosts: want some of each", certified, multi)
	}
}

// TestClimbCertificateIsOneWay pins the known converse failure: on
// PGFT(3;4,2,1;3,1,2;2,2,1) no D-Mod-K path shares a down port, but with
// one subtree under each top switch no pair turns there, so the top's
// descents — which the certificate reads all the same — are never taken,
// and they do share links.
func TestClimbCertificateIsOneWay(t *testing.T) {
	tp := topo.MustBuild(topo.MustPGFT(3, []int{4, 2, 1}, []int{3, 1, 2}, []int{2, 2, 1}))
	lft := route.DModK(tp)
	if n, first := DownPortConflicts(tp, lft); n != 0 {
		t.Fatalf("%d conflicts (%s), want a clean tally", n, first.Error)
	}
	c, err := route.Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	if w := c.ClimbWidth(); w != 0 {
		t.Fatalf("certified (climb width %d), want the known uncertified case", w)
	}
}
