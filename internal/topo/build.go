package topo

import "fmt"

// Topology is a fully wired PGFT instance.
type Topology struct {
	Spec  PGFT
	Nodes []Node
	Ports []Port
	Links []Link
	// ByLevel[l] lists node IDs at level l in Index order
	// (ByLevel[0] are the hosts).
	ByLevel [][]NodeID
}

// Build constructs the node/port/link graph for the spec following the
// PGFT connection rules of Section IV.B: ports (l, a, q) and (l+1, b, r)
// are connected iff a and b agree on every digit except position l+1, and
// the k-th of the p_{l+1} parallel links joins up-going port
// q = b_{l+1} + k*w_{l+1} to down-going port r = a_{l+1} + k*m_{l+1}.
//
// The graph is laid out in a fixed number of slabs, whatever its size:
// Nodes, Ports and Links are allocated once at their final length, and
// every node's Digits, Up and Down, and every level of ByLevel, is a
// window of one shared slab whose capacity ends where the window does,
// so appending to one node's slice never writes into another's.
func Build(spec PGFT) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Spec: spec}
	h := spec.H
	nodes, ports, links := 0, 0, 0
	for l := 0; l <= h; l++ {
		count := t.levelCount(l)
		nodes += count
		ports += count * (spec.UpPorts(l) + spec.DownPorts(l))
		links += count * spec.UpPorts(l)
	}
	t.Nodes, t.Ports, t.Links = make([]Node, nodes), make([]Port, ports), make([]Link, 0, links)
	t.ByLevel = make([][]NodeID, h+1)
	digits, portIDs, byLevel := make([]int, nodes*h), make([]PortID, ports), make([]NodeID, nodes)

	// Create nodes level by level, hosts first; a node's ports are
	// numbered contiguously, up ports then down ports, so the port slab
	// holds every port's own ID.
	id, pid := 0, 0
	for l := 0; l <= h; l++ {
		count := t.levelCount(l)
		t.ByLevel[l] = byLevel[id : id+count : id+count]
		kind := Switch
		if l == 0 {
			kind = Host
		}
		nUp, nDown := spec.UpPorts(l), spec.DownPorts(l)
		for idx := 0; idx < count; idx++ {
			up, down := pid+nUp, pid+nUp+nDown
			n := &t.Nodes[id]
			*n = Node{
				ID:     NodeID(id),
				Kind:   kind,
				Level:  l,
				Digits: digits[id*h : (id+1)*h : (id+1)*h],
				Index:  idx,
				Up:     portIDs[pid:up:up],
				Down:   portIDs[up:down:down],
				first:  PortID(pid),
			}
			t.digitsOf(n.Digits, l, idx)
			for q := 0; pid < down; q, pid = q+1, pid+1 {
				portIDs[pid] = PortID(pid)
				t.Ports[pid] = Port{ID: PortID(pid), Node: NodeID(id), Dir: Up, Num: q, Link: None}
				if pid >= up {
					t.Ports[pid].Dir, t.Ports[pid].Num = Down, pid-up
				}
			}
			t.ByLevel[l][idx] = NodeID(id)
			id++
		}
	}

	// Wire links bottom-up. A node's digits at positions 1..l carry the
	// same place values at levels l and l+1 (w_1..w_l), and position l+1
	// is worth place = w_1*...*w_l at both; only the digits above it move,
	// from place*m_{l+1} to place*w_{l+1}. So a parent's index is the
	// child's index re-based above position l+1 (base), plus b*place.
	for l := 0; l < h; l++ {
		wUp, pUp, mUp := spec.Wi(l+1), spec.Pi(l+1), spec.Mi(l+1)
		place := spec.WProd(l)
		parents := t.ByLevel[l+1]
		for _, aid := range t.ByLevel[l] {
			a := &t.Nodes[aid]
			low, aDigit, high := a.Index%place, a.Index/place%mUp, a.Index/(place*mUp)
			base := low + place*wUp*high
			for q := 0; q < wUp*pUp; q++ {
				b := q % wUp // parent digit at position l+1
				k := q / wUp // parallel copy
				bn := &t.Nodes[parents[base+b*place]]
				r := aDigit + k*mUp
				lower, upper := a.Up[q], bn.Down[r]
				if t.Ports[lower].Link != None {
					return nil, fmt.Errorf("topo: up port %v of %v wired twice", q, a)
				}
				if t.Ports[upper].Link != None {
					return nil, fmt.Errorf("topo: down port %v of %v wired twice", r, bn)
				}
				lid := LinkID(len(t.Links))
				t.Links = append(t.Links, Link{ID: lid, Lower: lower, Upper: upper, Level: l + 1})
				t.Ports[lower].Link = lid
				t.Ports[upper].Link = lid
			}
		}
	}

	// Every port must be connected.
	for i := range t.Ports {
		if t.Ports[i].Link == None {
			n := &t.Nodes[t.Ports[i].Node]
			return nil, fmt.Errorf("topo: %s port %d of %v left unconnected", t.Ports[i].Dir, t.Ports[i].Num, n)
		}
	}
	return t, nil
}

// MustBuild is Build that panics on error; for tests and fixed specs.
func MustBuild(spec PGFT) *Topology {
	t, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// levelCount returns the number of nodes at level l.
func (t *Topology) levelCount(l int) int {
	if l == 0 {
		return t.Spec.NumHosts()
	}
	return t.Spec.NumSwitches(l)
}

// radixAt returns the range of digit position i (1-based) for a node at
// level l: w_i when i <= l, m_i when i > l.
func (t *Topology) radixAt(l, i int) int {
	if i <= l {
		return t.Spec.Wi(i)
	}
	return t.Spec.Mi(i)
}

// digitsOf decodes a level-l node's linear index into its digit vector
// d (little-endian mixed radix).
func (t *Topology) digitsOf(d []int, l, idx int) {
	for i := 1; i <= t.Spec.H; i++ {
		r := t.radixAt(l, i)
		d[i-1] = idx % r
		idx /= r
	}
}

// NumHosts returns the number of end-ports.
func (t *Topology) NumHosts() int { return len(t.ByLevel[0]) }

// HostID returns the node ID of host j (its canonical end-port index).
func (t *Topology) HostID(j int) NodeID { return t.ByLevel[0][j] }

// Host returns host j.
func (t *Topology) Host(j int) *Node { return &t.Nodes[t.ByLevel[0][j]] }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) *Node { return &t.Nodes[id] }

// PeerPort returns the port on the far side of p's link.
func (t *Topology) PeerPort(p PortID) PortID {
	lk := &t.Links[t.Ports[p].Link]
	if lk.Lower == p {
		return lk.Upper
	}
	return lk.Lower
}

// PeerNode returns the node on the far side of p's link.
func (t *Topology) PeerNode(p PortID) NodeID {
	return t.Ports[t.PeerPort(p)].Node
}
