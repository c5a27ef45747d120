// Package route implements deterministic destination-based routing for
// PGFT/RLFT fat-trees, centered on the D-Mod-K routing of Section V of the
// paper (equation 1), plus baseline routings used for comparison.
// Checking a table set's paths is internal/invariant's business.
//
// Routing is expressed as linear forwarding tables (LFTs), what an
// InfiniBand subnet manager programs switches with: every switch has an
// entry per destination end-port, the output port's number on that
// switch. The tables hold those entries the way equation (1) writes
// them: D-Mod-K tables are two port vectors per level, and a table set
// stores a destination column only where a write — a fault repair, or a
// builder with no closed form — put one. Traffic climbs the tree until
// it reaches an ancestor of the destination and then descends; D-Mod-K
// chooses *which* ancestor by spreading destinations cyclically over
// up-going ports.
package route

import (
	"fmt"
	"slices"

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
// switch's LFT holds. Every switch and every host with several uplinks
// chooses per destination (HasRow); a single-uplink host (every RLFT
// host) has one entry for every destination: its uplink, or none once
// CutHost or a reroute has cut it off. No host has a port towards
// itself. OutPort and SetOutPort read and write every kind of node in
// global topo.PortIDs.
//
// Entries are held the way equation (1) writes them. Tables D-Mod-K
// built keep the two per-level port vectors every entry is a function of
// (2(h+1) bytes per destination): a level-l node's entry towards dst is
// the down vector's when dst lies below it and the up vector's
// otherwise. On top of that a table set stores whole destination
// columns — one byte per choosing node, hosts first (topo.Build numbers
// them first) — and an entry is read from its destination's stored
// column when there is one. D-Mod-K stores none; SetOutPort stores the
// column it writes, filled from the vectors first, so a repair costs the
// columns it touches and a compiled arena still computes the rest from
// the vectors. Tables without vectors (NewLFT, MinHopRandom) store every
// column, column dst in slot dst. topo.MaxPorts keeps every port number
// in a byte.
type LFT struct {
	T    *topo.Topology
	Name string
	vec  *portVectors // what the unstored columns follow; nil when every column is stored
	// dsts lists, ascending, the destinations whose column is stored
	// when there are vectors; cols holds those columns back to back, w
	// cells each, the cell of node id at id-off.
	dsts   []int32
	cols   []uint8
	w, off int
	cut    []bool // by host: cut off (CutHost); nil when none is
}

// noPort is the empty entry: no path from this node to the destination.
const noPort = 0xFF

// Topology implements Router.
func (f *LFT) Topology() *topo.Topology { return f.T }

// Label implements Router.
func (f *LFT) Label() string { return f.Name }

// NewLFT allocates an empty table set for t: every column is stored and
// every entry empty, except that every single-uplink host points at its
// uplink.
func NewLFT(t *topo.Topology, name string) *LFT {
	f := newLFT(t, name)
	f.cols = make([]uint8, t.NumHosts()*f.w)
	for i := range f.cols {
		f.cols[i] = noPort
	}
	return f
}

// newLFT returns a table set for t that stores nothing yet: hosts with
// one uplink get no cell in a column.
func newLFT(t *topo.Topology, name string) *LFT {
	f := &LFT{T: t, Name: name}
	if t.Spec.UpPorts(0) == 1 {
		f.off = t.NumHosts()
	}
	f.w = len(t.Nodes) - f.off
	return f
}

// Clone returns an independent copy of the forwarding tables under a new
// name: what a fault repair reroutes the touched columns of, leaving the
// healthy tables as they are. The port vectors are shared (nothing
// writes them); only the stored columns and the cut-off hosts are
// copied, so cloning D-Mod-K tables copies next to nothing.
func (f *LFT) Clone(name string) *LFT {
	c := *f
	c.Name = name
	c.dsts, c.cols, c.cut = slices.Clone(f.dsts), slices.Clone(f.cols), slices.Clone(f.cut)
	return &c
}

// HasRow reports whether node id chooses per destination: every switch
// does, and a host with several uplinks. A single-uplink host has one
// entry for all of them, which SetOutPort and CutHost set.
func (f *LFT) HasRow(id topo.NodeID) bool { return int(id) >= f.off }

// column returns the stored column of dst, or nil when its entries
// follow the vectors.
func (f *LFT) column(dst int) []uint8 {
	i := dst
	if f.vec != nil {
		var ok bool
		if i, ok = slices.BinarySearch(f.dsts, int32(dst)); !ok {
			return nil
		}
	}
	return f.cols[i*f.w : (i+1)*f.w : (i+1)*f.w]
}

// store returns the stored column of dst, storing it first — filled with
// what its entries read now — if it is not.
func (f *LFT) store(dst int) []uint8 {
	if col := f.column(dst); col != nil {
		return col
	}
	i, _ := slices.BinarySearch(f.dsts, int32(dst))
	f.dsts = slices.Insert(f.dsts, i, int32(dst))
	f.cols = append(f.cols, make([]uint8, f.w)...)
	copy(f.cols[(i+1)*f.w:], f.cols[i*f.w:])
	col := f.cols[i*f.w : (i+1)*f.w]
	for c := range col {
		col[c] = f.entryIn(nil, topo.NodeID(f.off+c), dst)
	}
	return col
}

// isCut reports whether host h is cut off.
func (f *LFT) isCut(h int) bool { return f.cut != nil && f.cut[h] }

// setCut cuts host h off, or reconnects it.
func (f *LFT) setCut(h int, cut bool) {
	if f.cut == nil && cut {
		f.cut = make([]bool, f.T.NumHosts())
	}
	if f.cut != nil {
		f.cut[h] = cut
	}
}

// entryIn returns the port number node id forwards dst through, or
// noPort, col being dst's stored column or nil.
func (f *LFT) entryIn(col []uint8, id topo.NodeID, dst int) uint8 {
	node := &f.T.Nodes[id]
	host := node.Kind == topo.Host
	switch {
	case host && node.Index == dst:
		return noPort
	case host && int(id) < f.off: // its one uplink
		if f.isCut(node.Index) {
			return noPort
		}
		return 0
	case col != nil:
		return col[int(id)-f.off]
	case host && f.isCut(node.Index):
		return noPort
	}
	return f.vec.at(node, dst)
}

// OutPort returns the port node id forwards dst through, or topo.None.
func (f *LFT) OutPort(id topo.NodeID, dst int) topo.PortID {
	e := f.entryIn(f.column(dst), id, dst)
	if e == noPort {
		return topo.None
	}
	return f.T.Nodes[id].FirstPort() + topo.PortID(e)
}

// SetOutPort makes node id forward dst through port p, one of its own
// ports, or empties the entry (p = topo.None). It panics on another
// node's port. A single-uplink host has one entry for every destination:
// setting it sets them all, and emptying it cuts the host off (CutHost).
// Any other entry is written into dst's stored column, which is stored
// first if it is not: the vectors stay, and still give every other
// column. A host stays cut off only while it forwards nothing: giving a
// cut-off host with several uplinks a port reconnects it, after storing
// every column as it reads now, so its other entries stay empty.
func (f *LFT) SetOutPort(id topo.NodeID, dst int, p topo.PortID) {
	node := &f.T.Nodes[id]
	e := uint8(noPort)
	if p != topo.None {
		if f.T.Ports[p].Node != id {
			panic(fmt.Sprintf("route: %s: port %d is not on %v", f.Name, p, node))
		}
		e = uint8(p - node.FirstPort())
	}
	if !f.HasRow(id) {
		f.setCut(node.Index, e == noPort)
		return
	}
	if e != noPort && node.Kind == topo.Host && f.isCut(node.Index) {
		for d := 0; f.vec != nil && d < f.T.NumHosts(); d++ {
			f.store(d)
		}
		f.setCut(node.Index, false)
	}
	f.store(dst)[int(id)-f.off] = e
}

// CutHost empties everything host h forwards — its entries in the stored
// columns, and every other — so every walk from it fails at the host.
func (f *LFT) CutHost(h int) {
	f.setCut(h, true)
	if id := f.T.HostID(h); f.HasRow(id) {
		for i := int(id) - f.off; i < len(f.cols); i += f.w {
			f.cols[i] = noPort
		}
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
	col := f.column(dst)
	for steps := 0; ; steps++ {
		n := t.Node(cur)
		if n.Kind == topo.Host && n.Index == dst {
			return nil
		}
		if steps >= limit {
			return fmt.Errorf("route: %s: loop routing %v->%d", f.Name, t.Node(from), dst)
		}
		e := f.entryIn(col, cur, dst)
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
