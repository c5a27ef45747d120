// Package fabric emulates the InfiniBand management plane the paper's
// tooling (ibdm / ibutils, OpenSM) operates on: node GUIDs, LID
// assignment, switch forwarding tables keyed by destination LID, an
// ibnetdiscover-style sweep of the cabling, and link fault injection
// with rerouting: the one repair of a routing's tables (Reroute over the
// columns a dead link touches, Repair) and, for a router without one,
// Refuse. It sits between the abstract topology/routing packages
// and anything that wants to look like a real subnet: the same
// structures a subnet manager would program into hardware.
package fabric

import (
	"fmt"
	"sort"

	"fattree/internal/route"
	"fattree/internal/topo"
)

// LID is an InfiniBand local identifier. LID 0 is reserved; assignment
// starts at 1.
type LID uint16

// GUID is a node's globally unique identifier. The emulation derives it
// deterministically from the node's position so dumps are reproducible.
type GUID uint64

// Subnet is a managed fabric: the wired topology plus the management
// identifiers and programmed forwarding state.
type Subnet struct {
	T *topo.Topology
	// LIDOf maps node IDs to LIDs (hosts first, then switches by level
	// and index — the order a subnet manager sweep would find them).
	LIDOf []LID
	// NodeOf is the inverse map (index 0 unused).
	NodeOf []topo.NodeID
	// GUIDs per node.
	GUIDOf []GUID

	hostLIDs []LID // host index -> LID
}

// NewSubnet assigns LIDs and GUIDs over a built topology.
func NewSubnet(t *topo.Topology) *Subnet {
	s := &Subnet{T: t}
	s.LIDOf = make([]LID, len(t.Nodes))
	s.GUIDOf = make([]GUID, len(t.Nodes))
	s.NodeOf = make([]topo.NodeID, 1, len(t.Nodes)+1) // LID 0 reserved
	next := LID(1)
	assign := func(id topo.NodeID) {
		s.LIDOf[id] = next
		s.NodeOf = append(s.NodeOf, id)
		n := t.Node(id)
		s.GUIDOf[id] = guidFor(n)
		next++
	}
	for _, id := range t.ByLevel[0] {
		assign(id)
	}
	for l := 1; l <= t.Spec.H; l++ {
		for _, id := range t.ByLevel[l] {
			assign(id)
		}
	}
	s.hostLIDs = make([]LID, t.NumHosts())
	for j := 0; j < t.NumHosts(); j++ {
		s.hostLIDs[j] = s.LIDOf[t.HostID(j)]
	}
	return s
}

// guidFor derives a stable GUID: 0xFA55 vendor prefix, level, and index.
func guidFor(n *topo.Node) GUID {
	return GUID(0xFA55)<<48 | GUID(n.Level)<<40 | GUID(uint32(n.Index))
}

// SwitchTables is the hardware view of a routing: for every switch, a
// linear forwarding table indexed by destination LID whose entries are
// physical egress port numbers (down ports first, then up ports — the
// port numbering a real switch exposes).
type SwitchTables struct {
	S *Subnet
	// Egress[switchNode][lid] is the physical egress port, or -1.
	Egress map[topo.NodeID][]int16
}

// PhysPort converts a topo.PortID to the node's physical port number:
// down ports are 1..nDown, up ports nDown+1..nDown+nUp (ports are
// 1-based on real switches; 0 means unassigned here).
func PhysPort(t *topo.Topology, p topo.PortID) int16 {
	port := &t.Ports[p]
	n := t.Node(port.Node)
	if port.Dir == topo.Down {
		return int16(port.Num + 1)
	}
	return int16(len(n.Down) + port.Num + 1)
}

// Program converts destination-indexed forwarding tables into LID-keyed
// switch tables — what OpenSM would write into the hardware. Only
// host-destination entries exist (the paper's traffic is host to host);
// switch-destination LIDs map to -1.
func (s *Subnet) Program(lft *route.LFT) *SwitchTables {
	st := &SwitchTables{S: s, Egress: make(map[topo.NodeID][]int16)}
	t := s.T
	maxLID := len(s.NodeOf)
	for l := 1; l <= t.Spec.H; l++ {
		for _, id := range t.ByLevel[l] {
			tab := make([]int16, maxLID)
			for i := range tab {
				tab[i] = -1
			}
			for dst := 0; dst < t.NumHosts(); dst++ {
				out := lft.OutPort(id, dst)
				if out == topo.None {
					continue
				}
				tab[s.hostLIDs[dst]] = PhysPort(t, out)
			}
			st.Egress[id] = tab
		}
	}
	return st
}

// Inventory is the result of a discovery sweep: what ibnetdiscover would
// print for this subnet.
type Inventory struct {
	Hosts    int
	Switches int
	Links    int
	// PortsBySwitch counts connected ports per switch GUID.
	PortsBySwitch map[GUID]int
}

// Discover sweeps the fabric breadth-first from host 0, following cables
// like the subnet manager's directed-route probing, and returns the
// inventory. It errors if the sweep does not reach every node (a cabling
// bug the real tool would surface the same way).
func (s *Subnet) Discover() (*Inventory, error) {
	t := s.T
	inv := &Inventory{PortsBySwitch: make(map[GUID]int)}
	seen := make([]bool, len(t.Nodes))
	queue := []topo.NodeID{t.HostID(0)}
	seen[t.HostID(0)] = true
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n := t.Node(id)
		switch n.Kind {
		case topo.Host:
			inv.Hosts++
		case topo.Switch:
			inv.Switches++
			inv.PortsBySwitch[s.GUIDOf[id]] = n.NumPorts()
		}
		for _, ports := range [][]topo.PortID{n.Up, n.Down} {
			for _, pid := range ports {
				inv.Links++
				peer := t.PeerNode(pid)
				if !seen[peer] {
					seen[peer] = true
					queue = append(queue, peer)
				}
			}
		}
	}
	inv.Links /= 2 // every cable counted from both sides
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("fabric: discovery did not reach %v", t.Node(topo.NodeID(i)))
		}
	}
	return inv, nil
}

// SortedSwitchGUIDs returns the discovered switch GUIDs in ascending
// order, for deterministic reporting.
func (inv *Inventory) SortedSwitchGUIDs() []GUID {
	out := make([]GUID, 0, len(inv.PortsBySwitch))
	for g := range inv.PortsBySwitch {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
