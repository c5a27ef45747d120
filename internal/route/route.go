// Package route implements deterministic destination-based routing for
// PGFT/RLFT fat-trees, centered on the D-Mod-K routing of Section V of the
// paper (equation 1), plus baseline routings used for comparison and
// validation helpers.
//
// Routing is materialized as linear forwarding tables (LFTs), exactly like
// an InfiniBand subnet manager would program switches: for every switch and
// every destination end-port the table names the output port. Traffic
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

// LFT is a set of per-node linear forwarding tables. Out[node][dst] is the
// port (a PortID on that node) that traffic for destination end-port dst
// leaves through, for every node that makes a choice: each switch, and a
// host with several uplinks. A single-uplink host (every RLFT host) has a
// nil row and one entry: its uplink, or topo.None once a reroute has cut
// it off. OutPort answers for both kinds of node.
//
// All rows are views into one flat backing slice (three allocations in
// all instead of one per node), so a trace touching consecutive nodes stays
// within a single arena and table builds like DModK stream through
// contiguous memory.
type LFT struct {
	T      *topo.Topology
	Name   string
	Out    [][]topo.PortID
	uplink []topo.PortID // by host index: the one entry of a rowless host
}

// Topology implements Router.
func (f *LFT) Topology() *topo.Topology { return f.T }

// Label implements Router.
func (f *LFT) Label() string { return f.Name }

// NewLFT allocates an empty table set for t: every row entry is
// topo.None, every rowless host points at its uplink.
func NewLFT(t *topo.Topology, name string) *LFT {
	f := allocLFT(t, name)
	for _, row := range f.Out {
		for j := range row {
			row[j] = topo.None
		}
	}
	for h := range f.uplink {
		f.uplink[h] = t.Host(h).Up[0]
	}
	return f
}

// allocLFT allocates a table set with its rows, zeroed, out of one slice.
func allocLFT(t *topo.Topology, name string) *LFT {
	n := t.NumHosts()
	f := &LFT{T: t, Name: name, Out: make([][]topo.PortID, len(t.Nodes)), uplink: make([]topo.PortID, n)}
	rows, rowless := len(t.Nodes), t.Spec.UpPorts(0) == 1 // hosts with one uplink store no row
	if rowless {
		rows -= n
	}
	flat := make([]topo.PortID, rows*n)
	for i := range t.Nodes {
		if !rowless || t.Nodes[i].Kind != topo.Host {
			f.Out[i], flat = flat[:n:n], flat[n:]
		}
	}
	return f
}

// Clone returns an independent deep copy of the forwarding tables under a
// new name, backed by its own flat arena: what a fault repair reroutes
// the touched columns of, leaving the healthy tables as they are.
func (f *LFT) Clone(name string) *LFT {
	c := allocLFT(f.T, name)
	copy(c.uplink, f.uplink)
	for i, row := range f.Out {
		copy(c.Out[i], row)
	}
	return c
}

// OutPort returns the forwarding entry for dst at node id.
func (f *LFT) OutPort(id topo.NodeID, dst int) topo.PortID {
	if row := f.Out[id]; row != nil {
		return row[dst]
	}
	if h := f.T.Nodes[id].Index; h != dst {
		return f.uplink[h]
	}
	return topo.None
}

// CutHost empties everything host h forwards — its row, or its one
// entry — so every walk from it fails at the host.
func (f *LFT) CutHost(h int) {
	f.uplink[h] = topo.None
	row := f.Out[f.T.HostID(h)]
	for j := range row {
		row[j] = topo.None
	}
}

// Hop is one link traversal of a traced path.
type Hop struct {
	Link topo.LinkID
	Up   bool // true when traversed from the lower to the upper node
}

// Trace follows the forwarding tables from src to dst and returns the
// traversed hops. It fails on dead ends, forwarding loops and entries
// naming another node's port.
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
		out := f.OutPort(cur, dst)
		if out == topo.None {
			return fmt.Errorf("route: %s: no entry for dst %d at %v", f.Name, dst, n)
		}
		p := &t.Ports[out]
		if p.Node != cur {
			return fmt.Errorf("route: %s: entry for dst %d at %v names foreign port", f.Name, dst, n)
		}
		visit(p.Link, p.Dir == topo.Up)
		cur = t.PeerNode(out)
	}
}
