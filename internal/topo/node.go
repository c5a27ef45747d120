package topo

import "fmt"

// NodeKind distinguishes end-ports (hosts) from switches.
type NodeKind uint8

const (
	// Host is a compute end-port at level 0.
	Host NodeKind = iota
	// Switch is a crossbar at level 1..H.
	Switch
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// NodeID is a dense identifier into Topology.Nodes.
type NodeID int32

// PortID is a dense identifier into Topology.Ports.
type PortID int32

// LinkID is a dense identifier into Topology.Links.
type LinkID int32

// None marks an absent node/port/link reference.
const None = -1

// Direction tells whether a port faces up (towards the roots) or down
// (towards the hosts).
type Direction uint8

const (
	// Up ports connect a node to level l+1.
	Up Direction = iota
	// Down ports connect a node to level l-1.
	Down
)

func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Node is a host or switch in the built topology.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Level int // 0 for hosts
	// Digits is the PGFT address vector, little-endian: Digits[i-1] is
	// the digit for tree level i. For i <= Level the digit ranges over
	// [0, w_i); for i > Level over [0, m_i).
	Digits []int
	// Index is the little-endian mixed-radix value of Digits within the
	// node's level; for hosts it is the canonical end-port index used by
	// the D-Mod-K routing and the topology-aware MPI node order.
	Index int
	// Up and Down list the node's port IDs by port number (q for up
	// ports, r for down ports). Build allocates a node's ports
	// contiguously, up ports then down ports, so the node's own port
	// numbering — up ports 0..u-1, down ports u..u+d-1, the number a
	// forwarding table entry stores — is an offset from FirstPort.
	Up, Down []PortID
	first    PortID // Up[0], or Down[0] for a top switch
}

// FirstPort returns the ID of the node's port number 0: its first up
// port, or the first down port of a top switch.
func (n *Node) FirstPort() PortID { return n.first }

// NumPorts returns the node's port count, up and down.
func (n *Node) NumPorts() int { return len(n.Up) + len(n.Down) }

// Port is one side of a link.
type Port struct {
	ID   PortID
	Node NodeID
	Dir  Direction
	Num  int    // q (up) or r (down) within the owning node
	Link LinkID // None when unconnected
}

// Link is a full-duplex cable between an up-going port of a lower node and
// a down-going port of an upper node.
type Link struct {
	ID    LinkID
	Lower PortID // up-going port on the level-l node
	Upper PortID // down-going port on the level-(l+1) node
	Level int    // the upper node's level (1..H)
}

// String renders a node as e.g. "switch L2 [3 0 1]".
func (n *Node) String() string {
	return fmt.Sprintf("%s L%d %v", n.Kind, n.Level, n.Digits)
}
