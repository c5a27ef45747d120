package route

import "fattree/internal/topo"

// portVectors are what D-Mod-K tables are a function of: the entry of a
// level-l node towards dst of an n-host fabric is down[l*n+dst] when dst
// lies below the node and up[l*n+dst] otherwise.
type portVectors struct {
	up, down []uint8
	n        int
	// below[l] and wprod[l] place a level-l node's hosts: dst lies below
	// the node of index i exactly when dst/below[l] == i/wprod[l] (the
	// node's digits above l are the high digits of both).
	below, wprod []int
}

// at returns the entry of node towards dst (not the node itself).
func (v *portVectors) at(node *topo.Node, dst int) uint8 {
	l := node.Level
	if l > 0 && dst/v.below[l] == node.Index/v.wprod[l] {
		return v.down[l*v.n+dst]
	}
	return v.up[l*v.n+dst]
}

// closedForm is how a compiled arena computes the tails of tables that
// have port vectors instead of storing them (Compiled.Tails reads it, and
// Compiled.ClimbKeys lays its climbs out per rank).
//
// Every up choice towards dst is dst's alone, and a node's parent through
// up port q differs from it in exactly one digit, set by q (topo.Build).
// So the level-l node a climb towards dst reaches keeps its start's digits
// above l and at or below the start's level, and takes dst's choices in
// between: its index within the level is A(row, l) + B(dst, l). topo.Build
// numbers links bottom-up, node by node and up port by up port, so the
// cell of the link that node climbs over is A'(row, l) + B'(dst, l) — two
// table reads and an add, no walk. Every climb towards dst that turns at
// level k reaches the same level-k node, and the k hops down from it are
// dst's alone (Theorem 2): a table per (dst, k). A tail is then the climb
// from its row's level l0 up to the turn level k — hops at or above k
// masked to 0 — and the k hops down, the same steps whatever k is.
//
// The hosts below a level-l node are contiguous and span-aligned (base),
// so a climb turns below level l exactly when its two end-ports' indexes
// divided by the span agree. With that index in a high word and A' or B'
// in the low one, a climb cell is the sum of two words, one per end-port,
// masked by whether their high words differ: ClimbKeys writes those words
// once per ordering and ClimbHop adds them. A' and B' at a level are the
// start's digits outside (l0, l] and dst's in (l0, l] plus its up port, so
// their sum names a real level-l node and one of its up ports whether or
// not the climb has turned: unmasked, a climb cell is always the up-port
// cell of a link climbing from that level, never past the counters' end.
//
// At 1944 hosts the form is about 125 KB, against the 2.1 MB a stored
// arena of those tails takes.
type closedForm struct {
	h, m int        // the tree height; the climb levels, h-l0
	rows []climbRow // per row and climb level
	// dsts holds rec values per destination, a power of two of them so
	// no destination straddles two cache lines: per climb level B' (twice
	// the up port's offset from the ancestor's first), then per turn
	// level k = l0..h the cells of the k hops down, 0-padded to h.
	dsts []uint32
	rec  int
	// exclusive certifies Theorem 2 for these cells: no switch link is
	// descended towards two destinations.
	exclusive bool
}

// climbRow is a row at one climb level: A' (the cell of the ancestor's
// up port 0, less its dst part), and the first host below the row's
// ancestor at that level and how many there are.
type climbRow struct{ a, base, span int32 }

// newClosedForm lays out the closed form of tables with vectors v on t,
// for rows that start at the level-l0 nodes from.
func newClosedForm(t *topo.Topology, v *portVectors, l0 int, from []topo.NodeID) *closedForm {
	g, n := t.Spec, t.NumHosts()
	m := g.H - l0
	cf := &closedForm{h: g.H, m: m, rec: 1}
	for cf.rec < m+(m+1)*g.H {
		cf.rec *= 2
	}
	// radix[l][i] is the place value of digit position i within level l
	// (topo.Node.Index): w below and at l, m above. linkOff[l] is the
	// first link above level l.
	radix, linkOff := make([][]int, g.H), make([]int, g.H)
	for l := 0; l < g.H; l++ {
		radix[l] = make([]int, g.H+1)
		radix[l][1] = 1
		for i := 1; i < g.H; i++ {
			if radix[l][i+1] = radix[l][i] * g.Mi(i); i <= l {
				radix[l][i+1] = radix[l][i] * g.Wi(i)
			}
		}
		if l+1 < g.H {
			linkOff[l+1] = linkOff[l] + len(t.ByLevel[l])*g.UpPorts(l)
		}
	}
	cf.rows = make([]climbRow, 0, len(from)*m)
	for _, id := range from {
		node := t.Node(id)
		for l := l0; l < g.H; l++ { // A': the start's digits outside (l0, l]
			a := 0
			for i := 1; i <= g.H; i++ {
				if i <= l0 || i > l {
					a += node.Digits[i-1] * radix[l][i]
				}
			}
			span := g.MProd(l)
			cf.rows = append(cf.rows, climbRow{a: int32(2*(linkOff[l]+a*g.UpPorts(l)) + 2), base: int32(firstHost(t, id) / span * span), span: int32(span)})
		}
	}
	// The certificate reads every descent the records hold — each turn
	// level's, not only the top's — so it vouches for exactly the cells
	// the tails are made of. owner is per link 1 + the destination a
	// descent took it towards, and is dropped with the compile.
	cf.dsts, cf.exclusive = make([]uint32, n*cf.rec), true
	owner := make([]int32, len(t.Links))
	for dst := 0; dst < n; dst++ {
		d := cf.dsts[dst*cf.rec:][:cf.rec]
		for l := l0; l < g.H; l++ { // B': dst's choices in (l0, l], and its port at l
			b := 0
			for i := l0 + 1; i <= l; i++ {
				b += int(v.up[(i-1)*n+dst]) % g.Wi(i) * radix[l][i]
			}
			d[l-l0] = uint32(2 * (b*g.UpPorts(l) + int(v.up[l*n+dst])))
		}
		for k := l0; k <= g.H; k++ {
			id := t.HostID(dst) // a climb from dst itself reaches the same level-k node
			for l := 0; l < k; l++ {
				id = t.PeerNode(t.Node(id).Up[v.up[l*n+dst]])
			}
			hops := d[m+(k-l0)*g.H:]
			for l := k; l > 0; l-- {
				p := t.Node(id).FirstPort() + topo.PortID(v.down[l*n+dst])
				link := t.Ports[p].Link
				hops[k-l], id = uint32(PackEntry(link, false)+1), t.PeerNode(p)
				if l > 1 && owner[link] != int32(dst)+1 {
					cf.exclusive = cf.exclusive && owner[link] == 0
					owner[link] = int32(dst) + 1
				}
			}
		}
	}
	return cf
}

// climb writes to out the climb towards dst from a row whose climb levels
// are rows, dr being dst's record: per level, the up hop, 0 from the turn
// level on. It returns how many levels the tail climbs: the turn level,
// less the row's.
func climb(out, dr []uint32, rows []climbRow, dst int) (k int) {
	out, dr = out[:len(rows)], dr[:len(rows)]
	for i, r := range rows {
		x := dst - int(r.base)
		up := (x | (int(r.span) - 1 - x)) >> 63 // -1 while dst is not below the ancestor: climb on
		out[i] = (uint32(r.a) + dr[i]) & uint32(up)
		k -= up
	}
	return k
}

// firstHost returns the first of the hosts below node id, which are
// contiguous: its digits above its level fix where they start (a host:
// itself).
func firstHost(t *topo.Topology, id topo.NodeID) int {
	g, node := t.Spec, t.Node(id)
	lo := 0
	for i := node.Level + 1; i <= g.H; i++ {
		lo += node.Digits[i-1] * g.MProd(i-1)
	}
	return lo
}
