package route_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// tableDigest hashes every entry of f as a walker reads it, node by node
// and destination by destination — hosts included, whether they store a
// row or not.
func tableDigest(f *route.LFT) string {
	h := sha256.New()
	var b [4]byte
	for id := range f.T.Nodes {
		for dst := 0; dst < f.T.NumHosts(); dst++ {
			binary.LittleEndian.PutUint32(b[:], uint32(f.OutPort(topo.NodeID(id), dst)))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTableDigests pins tables to digests taken when every host still
// stored a full row (commit c22c0ec): D-Mod-K on Cluster324 and
// minhop-random from seed 7, whose RNG stream must not notice that
// single-uplink hosts no longer write their draws anywhere; on
// Cluster1944, D-Mod-K and the naive variant that shares its fill.
func TestTableDigests(t *testing.T) {
	small, big := topo.MustBuild(topo.Cluster324), topo.MustBuild(topo.Cluster1944)
	for _, tc := range []struct {
		lft  *route.LFT
		want string
	}{
		{route.DModK(small), "b5402c4d1dfb99bf9a92619dbe4dc55f0c7fddfc66eee1c9a63be298a7a78fac"},
		{route.MinHopRandom(small, 7), "209443c40723d5f73f8354a20991b9bdbc2b1e4f16466e8d7162fce351ca61ae"},
		{route.DModK(big), "1b2d7b58344aa38c02de3b7719350cba135d2245c3af9e311383dbc30e13dd5d"},
		{route.DModKNaive(big), "90220dcc38b27451d3b03c17988cc31200e7fb8af765d14d7f8008e6fc8a565a"},
	} {
		if got := tableDigest(tc.lft); got != tc.want {
			t.Errorf("%s on %v: digest %s, want %s", tc.lft.Name, tc.lft.T.Spec, got, tc.want)
		}
	}
}

// TestCloneIsIndependent: a clone owns its stored columns and its host
// entries.
func TestCloneIsIndependent(t *testing.T) {
	for _, g := range []topo.PGFT{
		topo.Cluster128,
		topo.MustPGFT(2, []int{4, 3}, []int{2, 2}, []int{1, 1}), // hosts keep rows
	} {
		tp := topo.MustBuild(g)
		base := route.DModK(tp)
		want := tableDigest(base)
		c := base.Clone("clone")
		if c.Name != "clone" || tableDigest(c) != want {
			t.Fatalf("%v: the clone differs from its base", g)
		}
		c.CutHost(3)
		c.SetOutPort(tp.LeafOf(0).ID, 5, topo.None)
		if tableDigest(base) != want {
			t.Fatalf("%v: mutating the clone changed the base", g)
		}
		for dst := 0; dst < tp.NumHosts(); dst++ {
			if c.OutPort(tp.HostID(3), dst) != topo.None {
				t.Fatalf("%v: cut-off host 3 still forwards towards %d", g, dst)
			}
			if dst != 3 && base.OutPort(tp.HostID(3), dst) == topo.None {
				t.Fatalf("%v: the base lost host 3's entry towards %d", g, dst)
			}
		}
		if err := c.Walk(3, 0, func(topo.LinkID, bool) {}); err == nil {
			t.Fatalf("%v: a walk from a cut-off host succeeded", g)
		}
	}
}

// TestLFTFootprint guards what the tables store: a cell per node that
// chooses and nothing per single-uplink host, so an empty table set on
// the paper's largest cluster has 270 choosing nodes; D-Mod-K tables are
// their two port vectors per level and store no column, and a repair
// that writes one column of a clone stores that column and nothing more.
func TestLFTFootprint(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster1944)
	rows, empty := 0, route.NewLFT(tp, "empty")
	for id := range tp.Nodes {
		if empty.HasRow(topo.NodeID(id)) {
			rows++
		}
	}
	if want := tp.Spec.TotalSwitches(); rows != want || want != 270 {
		t.Fatalf("NewLFT(Cluster1944) stores %d rows, want one per switch (%d, 270)", rows, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lft := route.DModK(tp)
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 0.05 {
		t.Fatalf("DModK(Cluster1944) allocates %.3f MB, want <= 0.05 (2 vectors x 4 levels x 1944 x 1 B = 15.5 KB, and no column)", mb)
	}
	leaf, dst := tp.LeafOf(0), tp.NumHosts()-1
	runtime.ReadMemStats(&before)
	c := lft.Clone("one column")
	c.SetOutPort(leaf.ID, dst, leaf.Up[1])
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > uint64(2*len(tp.Nodes)) {
		t.Fatalf("Clone and a one-column SetOutPort allocate %d B, want <= %d (2 x nodes: one column of %d cells, not a table)", b, 2*len(tp.Nodes), rows)
	}
	if c.OutPort(leaf.ID, dst) != leaf.Up[1] || lft.OutPort(leaf.ID, dst) == leaf.Up[1] {
		t.Fatal("the write did not land in the clone alone")
	}
	runtime.KeepAlive(lft)
}

// TestSetOutPortRoundTrip: over seeded random fabrics, for every node,
// every destination and each of the node's own ports plus topo.None,
// OutPort reads back what SetOutPort wrote. A host's entry towards itself
// is not one (the flow is delivered), so hosts skip it.
func TestSetOutPortRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, g := range []topo.PGFT{invariant.RandPGFT(seed), invariant.RandRLFT(seed)} {
			tp := topo.MustBuild(g)
			f := route.DModK(tp)
			for id := range tp.Nodes {
				node := tp.Node(topo.NodeID(id))
				ports := append([]topo.PortID{topo.None}, node.Up...)
				ports = append(ports, node.Down...)
				for dst := 0; dst < tp.NumHosts(); dst++ {
					if node.Kind == topo.Host && node.Index == dst {
						continue
					}
					for _, p := range ports {
						f.SetOutPort(node.ID, dst, p)
						if got := f.OutPort(node.ID, dst); got != p {
							t.Fatalf("%v %v dst %d: SetOutPort(%d) reads back %d", g, node, dst, p, got)
						}
					}
				}
			}
		}
	}
}

// TestSetOutPortRejectsForeignPort: an entry is a port number on its own
// node, so another node's port has no encoding and must not be stored as
// whatever number it happens to land on.
func TestSetOutPortRejectsForeignPort(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	f := route.DModK(tp)
	for _, tc := range []struct {
		node topo.NodeID
		port topo.PortID
	}{
		{tp.LeafOf(0).ID, tp.LeafOf(8).Up[0]}, // the next leaf's first port
		{tp.LeafOf(0).ID, tp.Host(0).Up[0]},   // its peer across the link
		{tp.HostID(0), tp.Host(1).Up[0]},      // a rowless host
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOutPort(%v, port %d of %v) did not panic", tp.Node(tc.node), tc.port, tp.Node(tp.Ports[tc.port].Node))
				}
			}()
			f.SetOutPort(tc.node, 0, tc.port)
		}()
	}
}
