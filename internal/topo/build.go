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
func Build(spec PGFT) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Spec: spec}
	t.ByLevel = make([][]NodeID, spec.H+1)
	t.Nodes = make([]Node, 0, spec.NumHosts()+spec.TotalSwitches()) // no append slack: the slice stays live

	// Create nodes level by level, hosts first.
	for l := 0; l <= spec.H; l++ {
		count := t.levelCount(l)
		t.ByLevel[l] = make([]NodeID, count)
		for idx := 0; idx < count; idx++ {
			kind := Switch
			if l == 0 {
				kind = Host
			}
			id := NodeID(len(t.Nodes))
			n := Node{
				ID:     id,
				Kind:   kind,
				Level:  l,
				Digits: t.digitsOf(l, idx),
				Index:  idx,
			}
			// Allocate ports.
			nUp := spec.UpPorts(l)
			nDown := 0
			if l > 0 {
				nDown = spec.DownPorts(l)
			}
			n.first = PortID(len(t.Ports))
			n.Up = make([]PortID, nUp)
			n.Down = make([]PortID, nDown)
			for q := 0; q < nUp; q++ {
				pid := PortID(len(t.Ports))
				t.Ports = append(t.Ports, Port{ID: pid, Node: id, Dir: Up, Num: q, Link: None})
				n.Up[q] = pid
			}
			for r := 0; r < nDown; r++ {
				pid := PortID(len(t.Ports))
				t.Ports = append(t.Ports, Port{ID: pid, Node: id, Dir: Down, Num: r, Link: None})
				n.Down[r] = pid
			}
			t.Nodes = append(t.Nodes, n)
			t.ByLevel[l][idx] = id
		}
	}

	// Wire links bottom-up.
	for l := 0; l < spec.H; l++ {
		wUp := spec.Wi(l + 1)
		pUp := spec.Pi(l + 1)
		mUp := spec.Mi(l + 1)
		for _, aid := range t.ByLevel[l] {
			a := &t.Nodes[aid]
			for q := 0; q < wUp*pUp; q++ {
				b := q % wUp          // parent digit at position l+1
				k := q / wUp          // parallel copy
				aDigit := a.Digits[l] // a_{l+1}: A's digit at position l+1 (0-based slot l)
				// Parent digits: copy of A's with position l+1 set to b.
				pd := append([]int(nil), a.Digits...)
				pd[l] = b
				pidx := t.indexOf(l+1, pd)
				bid := t.ByLevel[l+1][pidx]
				bn := &t.Nodes[bid]
				r := aDigit + k*mUp
				lid := LinkID(len(t.Links))
				lower := a.Up[q]
				upper := bn.Down[r]
				if t.Ports[lower].Link != None {
					return nil, fmt.Errorf("topo: up port %v of %v wired twice", q, a)
				}
				if t.Ports[upper].Link != None {
					return nil, fmt.Errorf("topo: down port %v of %v wired twice", r, bn)
				}
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
// (little-endian mixed radix).
func (t *Topology) digitsOf(l, idx int) []int {
	d := make([]int, t.Spec.H)
	for i := 1; i <= t.Spec.H; i++ {
		r := t.radixAt(l, i)
		d[i-1] = idx % r
		idx /= r
	}
	return d
}

// indexOf encodes a digit vector back into the linear index at level l.
func (t *Topology) indexOf(l int, digits []int) int {
	idx := 0
	mul := 1
	for i := 1; i <= t.Spec.H; i++ {
		idx += digits[i-1] * mul
		mul *= t.radixAt(l, i)
	}
	return idx
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
