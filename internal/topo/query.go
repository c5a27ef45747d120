package topo

// HostDigit returns digit position i (1-based) of host index j in the m
// mixed radix: a_i = (j / prod_{k<i} m_k) mod m_i.
func (g PGFT) HostDigit(j, i int) int {
	return (j / g.MProd(i-1)) % g.Mi(i)
}

// IsDescendantHost reports whether host j lies in the sub-tree under the
// switch sw: all of j's m-radix digits above sw's level must match the
// switch's digits.
func (t *Topology) IsDescendantHost(sw *Node, j int) bool {
	for i := sw.Level + 1; i <= t.Spec.H; i++ {
		if t.Spec.HostDigit(j, i) != sw.Digits[i-1] {
			return false
		}
	}
	return true
}

// LeafOf returns the leaf switch (level 1) host j attaches to, assuming
// the single-uplink RLFT restriction (w_1 == 1). With w_1 > 1 it returns
// the parent with digit 0.
func (t *Topology) LeafOf(j int) *Node {
	h := t.Host(j)
	up := t.Ports[h.Up[0]]
	return &t.Nodes[t.Ports[t.PeerPort(up.ID)].Node]
}

// LCALevel returns the level of the lowest common ancestor sub-tree of
// hosts a and b: the smallest l such that all digits above l agree (so
// traffic between them must climb exactly to level l). Returns 0 when
// a == b.
func (g PGFT) LCALevel(a, b int) int {
	if a == b {
		return 0
	}
	l := g.H
	for l > 1 {
		// Check whether digits at positions l..H all agree; walking
		// down from the top, the first disagreement pins the level.
		if g.HostDigit(a, l) != g.HostDigit(b, l) {
			return l
		}
		l--
	}
	return 1
}

// HostsUnder returns the host indices in the sub-tree below sw, in
// ascending index order.
func (t *Topology) HostsUnder(sw *Node) []int {
	if sw.Kind == Host {
		return []int{sw.Index}
	}
	below := t.Spec.MProd(sw.Level)
	base := 0
	mul := t.Spec.MProd(sw.Level)
	for i := sw.Level + 1; i <= t.Spec.H; i++ {
		base += sw.Digits[i-1] * mul
		mul *= t.Spec.Mi(i)
	}
	hosts := make([]int, below)
	for k := 0; k < below; k++ {
		hosts[k] = base + k
	}
	return hosts
}

// Diameter returns the maximum hop count between two end-ports: up to
// the roots and back down.
func (g PGFT) Diameter() int { return 2 * g.H }
