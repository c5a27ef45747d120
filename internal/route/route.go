// Package route implements deterministic destination-based routing for
// PGFT/RLFT fat-trees, centered on the D-Mod-K routing of Section V of the
// paper (equation 1), plus baseline routings used for comparison.
// Checking a table set's paths is internal/invariant's business.
//
// Routing is materialized as linear forwarding tables (LFTs), exactly like
// an InfiniBand subnet manager would program switches: for every switch and
// every destination end-port the table stores the output port's number on
// that switch, one byte per entry. Traffic
// climbs the tree until it reaches an ancestor of the destination and then
// descends; D-Mod-K chooses *which* ancestor by spreading destinations
// cyclically over up-going ports.
package route

import (
	"fmt"

	"fattree/internal/topo"
)

// Router is anything that can walk the hops of a source-destination flow
// on a topology. Destination-based linear forwarding tables (LFT) are the
// canonical implementation — the only one InfiniBand switches can be
// programmed with — but source-based schemes like S-Mod-K implement it
// too, which lets the analysis and simulation layers compare them.
type Router interface {
	// Topology returns the fabric the router is bound to.
	Topology() *topo.Topology
	// Label names the routing scheme for reports.
	Label() string
	// Walk visits every hop of the src->dst flow in order.
	Walk(src, dst int, visit func(link topo.LinkID, up bool)) error
}

// LFT is a set of per-node linear forwarding tables. The entry of a node
// towards destination end-port dst is the number, on that node, of the
// port the traffic leaves through — up ports 0..u-1, down ports u..u+d-1
// (topo.Node) — in one byte, noPort meaning none: what an InfiniBand
// switch's LFT holds. A row of entries is stored for every node that makes
// a choice: each switch, and a host with several uplinks. A single-uplink
// host (every RLFT host) stores no row but one entry for every destination:
// its uplink, or none once a reroute has cut it off. OutPort and
// SetOutPort read and write both kinds of node in global topo.PortIDs.
//
// All rows are views into one flat backing slice (three allocations in
// all instead of one per node), so a trace touching consecutive nodes stays
// within a single arena and table builds like DModK stream through
// contiguous memory. topo.MaxPorts keeps every port number in a byte.
//
// Tables D-Mod-K built also keep the two per-level port vectors their
// rows were copied from (2(h+1) bytes per destination), which lets a
// compiled arena compute their tails instead of storing them; SetOutPort
// drops them, since a rewritten entry may no longer follow them.
type LFT struct {
	T      *topo.Topology
	Name   string
	rows   [][]uint8    // by node: its entries by destination, nil for a rowless host
	uplink []uint8      // by host index: the one entry of a rowless host
	vec    *portVectors // what every row follows, or nil
}

// noPort is the empty entry: no path from this node to the destination.
const noPort = 0xFF

// Topology implements Router.
func (f *LFT) Topology() *topo.Topology { return f.T }

// Label implements Router.
func (f *LFT) Label() string { return f.Name }

// NewLFT allocates an empty table set for t: every row entry is empty,
// every rowless host points at its uplink.
func NewLFT(t *topo.Topology, name string) *LFT {
	f := allocLFT(t, name)
	for _, row := range f.rows {
		for j := range row {
			row[j] = noPort
		}
	}
	return f // a zero uplink entry is port 0: the host's uplink
}

// allocLFT allocates a table set with its rows, zeroed, out of one slice.
func allocLFT(t *topo.Topology, name string) *LFT {
	n := t.NumHosts()
	f := &LFT{T: t, Name: name, rows: make([][]uint8, len(t.Nodes)), uplink: make([]uint8, n)}
	rows, rowless := len(t.Nodes), t.Spec.UpPorts(0) == 1 // hosts with one uplink store no row
	if rowless {
		rows -= n
	}
	flat := make([]uint8, rows*n)
	for i := range t.Nodes {
		if !rowless || t.Nodes[i].Kind != topo.Host {
			f.rows[i], flat = flat[:n:n], flat[n:]
		}
	}
	return f
}

// Clone returns an independent deep copy of the forwarding tables under a
// new name, backed by its own flat arena: what a fault repair reroutes
// the touched columns of, leaving the healthy tables as they are.
func (f *LFT) Clone(name string) *LFT {
	c := allocLFT(f.T, name)
	c.vec = f.vec
	copy(c.uplink, f.uplink)
	for i, row := range f.rows {
		copy(c.rows[i], row)
	}
	return c
}

// HasRow reports whether node id stores an entry per destination: every
// switch does, and a host with several uplinks. A single-uplink host has
// one entry for all of them, which SetOutPort and CutHost set.
func (f *LFT) HasRow(id topo.NodeID) bool { return f.rows[id] != nil }

// entry returns the port number node id forwards dst through, or noPort.
func (f *LFT) entry(id topo.NodeID, dst int) uint8 {
	if row := f.rows[id]; row != nil {
		return row[dst]
	}
	if h := f.T.Nodes[id].Index; h != dst {
		return f.uplink[h]
	}
	return noPort
}

// OutPort returns the port node id forwards dst through, or topo.None.
func (f *LFT) OutPort(id topo.NodeID, dst int) topo.PortID {
	e := f.entry(id, dst)
	if e == noPort {
		return topo.None
	}
	return f.T.Nodes[id].FirstPort() + topo.PortID(e)
}

// SetOutPort makes node id forward dst through port p, one of its own
// ports, or empties the entry (p = topo.None). It panics on another
// node's port. A single-uplink host has one entry for every destination:
// setting it sets them all, and emptying it cuts the host off (CutHost).
// The tables no longer have a closed form afterwards.
func (f *LFT) SetOutPort(id topo.NodeID, dst int, p topo.PortID) {
	f.vec = nil
	node := &f.T.Nodes[id]
	e := uint8(noPort)
	if p != topo.None {
		if f.T.Ports[p].Node != id {
			panic(fmt.Sprintf("route: %s: port %d is not on %v", f.Name, p, node))
		}
		e = uint8(p - node.FirstPort())
	}
	if row := f.rows[id]; row != nil {
		row[dst] = e
	} else {
		f.uplink[node.Index] = e
	}
}

// CutHost empties everything host h forwards — its row, or its one
// entry — so every walk from it fails at the host.
func (f *LFT) CutHost(h int) {
	f.uplink[h] = noPort
	row := f.rows[f.T.HostID(h)]
	for j := range row {
		row[j] = noPort
	}
}

// Hop is one link traversal of a traced path.
type Hop struct {
	Link topo.LinkID
	Up   bool // true when traversed from the lower to the upper node
}

// Trace follows the forwarding tables from src to dst and returns the
// traversed hops. It fails on dead ends, forwarding loops and entries
// past the node's port count.
func (f *LFT) Trace(src, dst int) ([]Hop, error) {
	hops := make([]Hop, 0, 2*f.T.Spec.H+2)
	err := f.Walk(src, dst, func(l topo.LinkID, up bool) { hops = append(hops, Hop{Link: l, Up: up}) })
	if err != nil {
		return nil, fmt.Errorf("%w (hops %v)", err, hops)
	}
	return hops, nil
}

// Walk is a zero-allocation Trace for hot loops: visit is called once per
// hop. It returns an error under the same conditions as Trace.
func (f *LFT) Walk(src, dst int, visit func(link topo.LinkID, up bool)) error {
	return f.walkFrom(f.T.HostID(src), dst, visit)
}

// walkFrom is Walk from an arbitrary node. Forwarding is
// destination-based, so the hops from cur towards dst are the tail of
// every path to dst that passes through cur — what lets the path compiler
// walk one row per entry switch instead of one per source.
func (f *LFT) walkFrom(cur topo.NodeID, dst int, visit func(link topo.LinkID, up bool)) error {
	t := f.T
	from := cur
	limit := 2*t.Spec.H + 2
	for steps := 0; ; steps++ {
		n := t.Node(cur)
		if n.Kind == topo.Host && n.Index == dst {
			return nil
		}
		if steps >= limit {
			return fmt.Errorf("route: %s: loop routing %v->%d", f.Name, t.Node(from), dst)
		}
		e := f.entry(cur, dst)
		if e == noPort {
			return fmt.Errorf("route: %s: no entry for dst %d at %v", f.Name, dst, n)
		}
		if int(e) >= n.NumPorts() {
			return fmt.Errorf("route: %s: entry for dst %d at %v names port %d of %d", f.Name, dst, n, e, n.NumPorts())
		}
		out := n.FirstPort() + topo.PortID(e)
		p := &t.Ports[out]
		visit(p.Link, p.Dir == topo.Up)
		cur = t.PeerNode(out)
	}
}
