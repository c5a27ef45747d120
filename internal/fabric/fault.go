package fabric

import (
	"fmt"
	"math/rand"
	"slices"

	"fattree/internal/route"
	"fattree/internal/topo"
)

// FaultSet marks dead cables. A production subnet manager reroutes around
// exactly this information after a sweep notices missing links.
type FaultSet struct {
	t    *topo.Topology
	dead []bool
}

// NewFaultSet returns an all-alive fault set for the topology.
func NewFaultSet(t *topo.Topology) *FaultSet {
	return &FaultSet{t: t, dead: make([]bool, len(t.Links))}
}

// Fail marks a link dead. Failing a host's last alive uplink makes that
// host unroutable; RouteAround reports it.
func (f *FaultSet) Fail(l topo.LinkID) { f.dead[l] = true }

// Revive marks a link alive again.
func (f *FaultSet) Revive(l topo.LinkID) { f.dead[l] = false }

// Alive reports whether a link is usable.
func (f *FaultSet) Alive(l topo.LinkID) bool { return !f.dead[l] }

// Failed returns the number of dead links.
func (f *FaultSet) Failed() int {
	n := 0
	for _, d := range f.dead {
		if d {
			n++
		}
	}
	return n
}

// FailRandomFabricLinks kills n distinct switch-to-switch links (host
// uplinks are spared so every end-port stays routable), deterministic
// per seed.
func (f *FaultSet) FailRandomFabricLinks(n int, seed int64) error {
	return f.FailRandomFabricLinksRand(n, rand.New(rand.NewSource(seed)))
}

// FailRandomFabricLinksRand is FailRandomFabricLinks with an injected
// RNG, so long-lived callers (the fabric-manager daemon, deterministic
// tests) thread one *rand.Rand through every draw instead of reseeding
// per call.
func (f *FaultSet) FailRandomFabricLinksRand(n int, r *rand.Rand) error {
	var fabricLinks []topo.LinkID
	for i := range f.t.Links {
		lk := &f.t.Links[i]
		if f.t.Node(f.t.Ports[lk.Lower].Node).Kind == topo.Switch && !f.dead[i] {
			fabricLinks = append(fabricLinks, topo.LinkID(i))
		}
	}
	if n > len(fabricLinks) {
		return fmt.Errorf("fabric: cannot fail %d of %d fabric links", n, len(fabricLinks))
	}
	r.Shuffle(len(fabricLinks), func(i, j int) {
		fabricLinks[i], fabricLinks[j] = fabricLinks[j], fabricLinks[i]
	})
	for _, l := range fabricLinks[:n] {
		f.dead[l] = true
	}
	return nil
}

// FailedLinks returns the dead link IDs in ascending order.
func (f *FaultSet) FailedLinks() []topo.LinkID {
	var out []topo.LinkID
	for i, d := range f.dead {
		if d {
			out = append(out, topo.LinkID(i))
		}
	}
	return out
}

// RerouteResult reports the collateral damage of a reroute.
type RerouteResult struct {
	// UnroutableHosts lost every uplink; no traffic can reach or leave
	// them.
	UnroutableHosts []int
	// BrokenPairs counts ordered (src,dst) combinations of routable hosts
	// that remained without a minimal up*/down* path (pairs touching an
	// unroutable host are all lost and not counted). Routing is minimal by
	// construction; under heavy correlated faults a source's alive
	// up-links may all lead to spines that lost their link into the
	// destination's sub-tree, which only a non-minimal detour could
	// recover — a limitation real ftree engines share.
	BrokenPairs int
}

// UnroutableHosts returns the hosts with no alive uplink, ascending — the
// set every routing shares, since no table choice reaches a host with no
// alive cable.
func (f *FaultSet) UnroutableHosts() []int {
	var out []int
	for j := 0; j < f.t.NumHosts(); j++ {
		if !slices.ContainsFunc(f.t.Host(j).Up, func(p topo.PortID) bool { return f.Alive(f.t.Ports[p].Link) }) {
			out = append(out, j)
		}
	}
	return out
}

// RouteAround recomputes D-Mod-K-style forwarding tables avoiding dead
// links, the way OpenSM's ftree engine reroutes after a link failure:
// Reroute over every column of a fresh table set, spreading by the raw
// destination index. With no faults the result is bit-identical to
// route.DModK.
func (f *FaultSet) RouteAround() (*route.LFT, RerouteResult, error) {
	lft := route.NewLFT(f.t, fmt.Sprintf("d-mod-k-reroute[%d faults]", f.Failed()))
	cols := make([]int, f.t.NumHosts())
	for j := range cols {
		cols[j] = j
	}
	return lft, f.Reroute(lft, nil, cols), nil
}

// Reroute is the one fault-aware routing rule, applied to the destination
// columns cols of lft: for each it grows the reachable "down cone" from
// the destination upward (among parallel copies into a parent the copy
// equation (1) would use wins when alive), then points every other node up
// towards the cone, hosts with several uplinks by the same rule as
// switches (the equation (1) up port, else the next alive candidate), and
// empties the entry of a node no alive port leads from. rank replaces the
// destination index in every spreading choice, as in route.DModKActive;
// nil is the identity. Every entry of a named column is rewritten and no
// other column is read, so lft may be a fresh table set (name every
// column) or a clone of the healthy tables (name the columns whose entries
// cross a dead link, host links included): both give the same tables. The
// row and column of an unroutable host are emptied whether named or not,
// so walks from and to it fail; a routable single-uplink host has no row
// (route.LFT), so a pair its leaf cannot forward fails there, one hop
// after the host.
// BrokenPairs is exact as long as every column the faults changed is
// named.
func (f *FaultSet) Reroute(lft *route.LFT, rank []int, cols []int) RerouteResult {
	t := f.t
	g := t.Spec
	res := RerouteResult{UnroutableHosts: f.UnroutableHosts()}
	unroutable := make([]bool, t.NumHosts())
	for _, u := range res.UnroutableHosts {
		unroutable[u] = true
		lft.CutHost(u)
		for id := range t.Nodes {
			if lft.HasRow(topo.NodeID(id)) {
				lft.SetOutPort(topo.NodeID(id), u, topo.None)
			}
		}
	}
	canReach := make([]bool, len(t.Nodes)) // for the current destination
	var frontier, next []topo.NodeID
	for _, j := range cols {
		if unroutable[j] {
			continue
		}
		rj := j
		if rank != nil {
			rj = rank[j]
		}
		for i := range canReach {
			canReach[i] = false
		}
		host := t.Host(j)
		canReach[host.ID] = true

		// Grow the down cone level by level: at level l the ancestors
		// of j are the switches whose digits above l match j's.
		frontier = append(frontier[:0], host.ID)
		for l := 1; l <= g.H; l++ {
			next = next[:0]
			for _, cid := range frontier {
				for _, pid := range t.Node(cid).Up {
					if !f.Alive(t.Ports[pid].Link) {
						continue
					}
					peerPort := t.PeerPort(pid)
					parent := t.Ports[peerPort].Node
					if !canReach[parent] {
						canReach[parent] = true
						next = append(next, parent)
					} else if preferredDown(t, j, rj, parent, l) != peerPort {
						continue
					}
					lft.SetOutPort(parent, j, peerPort)
				}
			}
			frontier, next = next, frontier
		}

		// Point everything else up, top level down to the leaves, so
		// parents' reachability is known before children choose. A top
		// switch outside the cone has nowhere to point.
		for l := g.H; l >= 0; l-- {
			u, q0 := g.UpPorts(l), 0 // q0: equation (1)'s up port, level-wide
			if u > 0 {
				q0 = rj / g.WProd(l) % u
			}
			for _, id := range t.ByLevel[l] {
				if canReach[id] {
					continue
				}
				node := t.Node(id)
				out := topo.PortID(topo.None)
				for k, q := 0, q0; k < u; k++ {
					if pid := node.Up[q]; f.Alive(t.Ports[pid].Link) && canReach[t.PeerNode(pid)] {
						out = pid
						break
					}
					if q++; q == u {
						q = 0
					}
				}
				if out == topo.None && node.Kind == topo.Host && !unroutable[node.Index] {
					res.BrokenPairs++
				}
				if lft.HasRow(id) {
					lft.SetOutPort(id, j, out)
				}
				canReach[id] = out != topo.None
			}
		}
	}
	return res
}

// preferredDown returns the down port on the level-l parent that the
// fault-free ranked rule uses towards destination j: the child digit
// follows j's real address (delivery), the parallel copy its rank rj
// (spreading). topo.None if out of range.
func preferredDown(t *topo.Topology, j, rj int, parent topo.NodeID, l int) topo.PortID {
	g := t.Spec
	node := t.Node(parent)
	a := (j / g.MProd(l-1)) % g.Mi(l)
	k := (rj / g.WProd(l-1)) % (g.Wi(l) * g.Pi(l)) / g.Wi(l)
	r := a + k*g.Mi(l)
	if r >= len(node.Down) {
		return topo.None
	}
	return node.Down[r]
}

// Tables is one fault state's routing product: the forwarding tables,
// the path arena compiled over them, and the fault collateral.
// Everything is immutable once returned.
type Tables struct {
	// LFT is the destination-based forwarding-table realization — what a
	// subnet manager would program into switches. Nil for a routing that
	// cannot be expressed as one (s-mod-k is source-based).
	LFT *route.LFT
	// Compiled is the packed path arena over the routing, with pairs the
	// fault state leaves unservable recorded as broken. Never nil: every
	// walk, analysis and routing label goes through it.
	Compiled *route.Compiled
	// Unroutable lists hosts that lost every uplink, ascending.
	Unroutable []int
	// BrokenPairs counts ordered pairs between routable hosts left
	// without a served minimal path.
	BrokenPairs int
}

// Healthy compiles a fully routable router into the Tables a healthy
// fabric serves: the base Repair and Refuse start from.
func Healthy(rt route.Router) (*Tables, error) {
	c, err := route.Compile(rt)
	if err != nil {
		return nil, err
	}
	lft, _ := rt.(*route.LFT)
	return &Tables{LFT: lft, Compiled: c}, nil
}

// Repair is the fault-aware routing's answer to this fault set: Reroute
// with rank (as in route.DModKActive; nil is the identity) over the
// destination columns a dead link touches, on a clone of the healthy
// forwarding tables, and the healthy arena re-walked in those columns
// alone. The tables are labelled "<healthy>-reroute[N faults]", the
// label RouteAround gives the same tables built from scratch. With no
// fault, healthy itself is the answer. healthy must come from Healthy
// over forwarding tables of this fault set's topology.
func (f *FaultSet) Repair(healthy *Tables, rank []int) (*Tables, error) {
	if f.Failed() == 0 {
		return healthy, nil
	}
	base := healthy.LFT
	dirty := f.touchedColumns(base)
	lft := base.Clone(fmt.Sprintf("%s-reroute[%d faults]", base.Name, f.Failed()))
	un := f.Reroute(lft, rank, dirty).UnroutableHosts
	c, err := healthy.Compiled.Repatch(lft, dirty)
	if err != nil {
		return nil, err
	}
	return lenient(c, lft, un)
}

// Refuse is a routing without a repair under this fault set: the healthy
// tables stay as programmed, and every pair whose path crosses a dead
// link is broken rather than rerouted. With no fault, healthy itself is
// the answer.
func (f *FaultSet) Refuse(healthy *Tables) (*Tables, error) {
	if f.Failed() == 0 {
		return healthy, nil
	}
	alive := &aliveOnly{Router: healthy.Compiled.Inner(), dead: slices.Clone(f.dead)}
	return lenient(alive, healthy.LFT, f.UnroutableHosts())
}

// lenient assembles the Tables of a faulted fabric: rt leniently
// compiled (an already compiled arena, like Repair's, is kept as is), so
// every pair rt refuses or walks non-minimally comes back broken, and
// BrokenPairs excludes the pairs already doomed by the unroutable hosts —
// they are broken under every routing and say nothing of its repair.
func lenient(rt route.Router, lft *route.LFT, unroutable []int) (*Tables, error) {
	c, err := route.CompileLenient(rt)
	if err != nil {
		return nil, err
	}
	n, u := rt.Topology().NumHosts(), len(unroutable)
	return &Tables{
		LFT:         lft,
		Compiled:    c,
		Unroutable:  unroutable,
		BrokenPairs: max(c.NumBroken()-(2*u*(n-1)-u*(u-1)), 0),
	}, nil
}

// touchedColumns lists, ascending, the destination columns whose entry at
// either end of a dead link forwards through it, host links included:
// the only columns a reroute of these tables can change.
func (f *FaultSet) touchedColumns(lft *route.LFT) (cols []int) {
	t, dead := f.t, f.FailedLinks()
	for j := 0; j < t.NumHosts(); j++ {
		if slices.ContainsFunc(dead, func(l topo.LinkID) bool {
			lk := &t.Links[l]
			return lft.OutPort(t.Ports[lk.Lower].Node, j) == lk.Lower || lft.OutPort(t.Ports[lk.Upper].Node, j) == lk.Upper
		}) {
			cols = append(cols, j)
		}
	}
	return cols
}

// aliveOnly filters a router through a snapshot of the dead links: a walk
// that crosses one delivers its hops (so lenient compiles account the
// partial path) and then fails, which is exactly the contract that makes
// CompileLenient mark the pair broken. It snapshots the fault set instead
// of holding it because callers (the fabric manager) mutate their live
// FaultSet between epochs while compiled arenas stay immutable.
type aliveOnly struct {
	route.Router
	dead []bool
}

func (a *aliveOnly) Walk(src, dst int, visit func(link topo.LinkID, up bool)) error {
	hit := topo.LinkID(-1)
	if err := a.Router.Walk(src, dst, func(l topo.LinkID, up bool) {
		if a.dead[l] && hit < 0 {
			hit = l
		}
		visit(l, up)
	}); err != nil {
		return err
	}
	if hit >= 0 {
		return fmt.Errorf("route: %s: path %d->%d crosses dead link %d", a.Label(), src, dst, hit)
	}
	return nil
}
