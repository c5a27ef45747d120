package fabric

import (
	"bytes"
	"strings"
	"testing"

	"fattree/internal/route"
	"fattree/internal/topo"
)

func TestLIDAssignment(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	s := NewSubnet(tp)
	// LIDs are dense, start at 1, hosts first.
	if s.hostLIDs[0] != 1 {
		t.Errorf("host 0 LID = %d, want 1", s.hostLIDs[0])
	}
	if s.hostLIDs[127] != 128 {
		t.Errorf("host 127 LID = %d, want 128", s.hostLIDs[127])
	}
	seen := make(map[LID]bool)
	for id := range tp.Nodes {
		l := s.LIDOf[id]
		if l == 0 {
			t.Fatalf("node %d has LID 0", id)
		}
		if seen[l] {
			t.Fatalf("duplicate LID %d", l)
		}
		seen[l] = true
	}
	if len(seen) != len(tp.Nodes) {
		t.Errorf("assigned %d LIDs for %d nodes", len(seen), len(tp.Nodes))
	}
	// Round trip.
	if n := tp.Node(s.NodeOf[s.hostLIDs[64]]); n.Kind != topo.Host || n.Index != 64 {
		t.Errorf("host 64's LID maps back to %v", n)
	}
}

func TestGUIDsUniqueAndStable(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	a := NewSubnet(tp)
	b := NewSubnet(tp)
	seen := make(map[GUID]bool)
	for id := range tp.Nodes {
		if a.GUIDOf[id] != b.GUIDOf[id] {
			t.Fatalf("GUID of node %d not stable", id)
		}
		if seen[a.GUIDOf[id]] {
			t.Fatalf("duplicate GUID %x", a.GUIDOf[id])
		}
		seen[a.GUIDOf[id]] = true
	}
}

func TestProgramAndLookup(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	s := NewSubnet(tp)
	lft := route.DModK(tp)
	st := s.Program(lft)
	// Every switch has a table; every host LID resolves to a valid
	// physical port; following the physical ports delivers the packet.
	for dst := 0; dst < tp.NumHosts(); dst += 17 {
		lid := s.hostLIDs[dst]
		cur := tp.LeafOf((dst + 64) % 128).ID // start away from dst
		for hops := 0; ; hops++ {
			if hops > 2*tp.Spec.H+1 {
				t.Fatalf("physical forwarding loop to lid %d", lid)
			}
			node := tp.Node(cur)
			if node.Kind == topo.Host {
				if node.Index != dst {
					t.Fatalf("delivered to host %d, want %d", node.Index, dst)
				}
				break
			}
			phys := st.Egress[cur][lid]
			if phys < 1 {
				t.Fatalf("switch %v has no entry for lid %d", node, lid)
			}
			// Convert the physical port back to a PortID.
			var pid topo.PortID
			if int(phys) <= len(node.Down) {
				pid = node.Down[phys-1]
			} else {
				pid = node.Up[int(phys)-1-len(node.Down)]
			}
			cur = tp.PeerNode(pid)
		}
	}
	if _, ok := st.Egress[tp.HostID(0)]; ok {
		t.Error("a host has a switch table")
	}
}

func TestDiscoverInventory(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	s := NewSubnet(tp)
	inv, err := s.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if inv.Hosts != 324 {
		t.Errorf("hosts = %d, want 324", inv.Hosts)
	}
	if inv.Switches != 27 {
		t.Errorf("switches = %d, want 27", inv.Switches)
	}
	if inv.Links != len(tp.Links) {
		t.Errorf("links = %d, want %d", inv.Links, len(tp.Links))
	}
	for _, g := range inv.SortedSwitchGUIDs() {
		if inv.PortsBySwitch[g] != 36 {
			t.Errorf("switch %x has %d connected ports, want 36", g, inv.PortsBySwitch[g])
		}
	}
}

func TestLFTDumpRoundTrip(t *testing.T) {
	tp := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	s := NewSubnet(tp)
	st := s.Program(route.DModK(tp))
	var buf bytes.Buffer
	if err := st.WriteLFTs(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseLFTs(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(parsed) != 6 {
		t.Fatalf("parsed %d switches, want 6", len(parsed))
	}
	// Self-diff is empty.
	if d := DiffLFTs(parsed, parsed); len(d) != 0 {
		t.Errorf("self diff = %v", d)
	}
	// A different routing diffs non-empty.
	st2 := s.Program(route.MinHopRandom(tp, 3))
	var buf2 bytes.Buffer
	if err := st2.WriteLFTs(&buf2); err != nil {
		t.Fatal(err)
	}
	parsed2, err := ParseLFTs(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffLFTs(parsed, parsed2); len(d) == 0 {
		t.Error("different routings produced identical dumps")
	}
}

func TestParseLFTsErrors(t *testing.T) {
	cases := []string{
		"0x0001 003 : (host L0:0)\n", // entry before header
		"Unicast lids of switch guid 0x0 (L1:0):\n",
		"Unicast lids [0x1-0x10] of switch Lid 0xZZ guid 0x0 (L1:0):\n",
		"Unicast lids [0x1-0x10] of switch Lid 0x11 guid 0x0 (L1:0):\nbogus\n",
		"Unicast lids [0x1-0x10] of switch Lid 0x11 guid 0x0 (L1:0):\n0xZZ 003 : x\n",
		"Unicast lids [0x1-0x10] of switch Lid 0x11 guid 0x0 (L1:0):\n0x01 zz : x\n",
	}
	for i, in := range cases {
		if _, err := ParseLFTs(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted:\n%s", i, in)
		}
	}
}

func TestPhysPortNumbering(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	leaf := tp.Node(tp.ByLevel[1][0])
	// Down ports are 1..18, up ports 19..36.
	if got := PhysPort(tp, leaf.Down[0]); got != 1 {
		t.Errorf("first down port = %d, want 1", got)
	}
	if got := PhysPort(tp, leaf.Down[17]); got != 18 {
		t.Errorf("last down port = %d, want 18", got)
	}
	if got := PhysPort(tp, leaf.Up[0]); got != 19 {
		t.Errorf("first up port = %d, want 19", got)
	}
	if got := PhysPort(tp, leaf.Up[17]); got != 36 {
		t.Errorf("last up port = %d, want 36", got)
	}
}
