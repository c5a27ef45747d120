package fabric_test

// The wall for the implied host entry: route.LFT stores no row for a
// single-uplink host, so every reader answers for it from one entry. The
// oracle below is the reroute as it was when every node, hosts included,
// stored a full row — written out again here over dense rows, sharing no
// code with fabric.Reroute — and the tables must agree with it entry for
// entry, walk for walk and in BrokenPairs. Its one deliberate change since
// it was first written: a host with several uplinks used to try only
// Up[0], so its healthy row differed from D-Mod-K's and a dead Up[0] made
// it unroutable; it now picks its up port as a switch does (equation (1),
// then the next alive uplink) and is unroutable only with none alive.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fattree/internal/fabric"
	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// denseReroute materializes a full row for every node, hosts included,
// by the reroute rule over every column of an empty table set, and
// counts the broken pairs as that rule does.
func denseReroute(t *topo.Topology, alive func(topo.LinkID) bool) (out [][]topo.PortID, broken int) {
	g, n := t.Spec, t.NumHosts()
	out = make([][]topo.PortID, len(t.Nodes))
	for id := range out {
		out[id] = make([]topo.PortID, n)
		for j := range out[id] {
			out[id][j] = topo.None
		}
	}
	unroutable := make([]bool, n)
	for j := range unroutable {
		unroutable[j] = !slices.ContainsFunc(t.Host(j).Up, func(p topo.PortID) bool { return alive(t.Ports[p].Link) })
	}
	for j := 0; j < n; j++ {
		if unroutable[j] {
			continue // its column and its row stay empty
		}
		canReach := make([]bool, len(t.Nodes))
		canReach[t.HostID(j)] = true
		frontier := []topo.NodeID{t.HostID(j)}
		for l := 1; l <= g.H; l++ {
			var next []topo.NodeID
			for _, cid := range frontier {
				for _, pid := range t.Node(cid).Up {
					if !alive(t.Ports[pid].Link) {
						continue
					}
					peerPort := t.PeerPort(pid)
					parent := t.Ports[peerPort].Node
					a := (j / g.MProd(l-1)) % g.Mi(l)
					k := (j / g.WProd(l-1)) % (g.Wi(l) * g.Pi(l)) / g.Wi(l)
					preferred := t.Node(parent).Down[a+k*g.Mi(l)]
					if !canReach[parent] {
						canReach[parent] = true
						next = append(next, parent)
					} else if preferred != peerPort {
						continue
					}
					out[parent][j] = peerPort
				}
			}
			frontier = next
		}
		for l := g.H; l >= 0; l-- {
			for _, id := range t.ByLevel[l] {
				if canReach[id] {
					continue
				}
				node := t.Node(id)
				if node.Kind == topo.Host && unroutable[node.Index] {
					continue
				}
				port := topo.PortID(topo.None)
				for k := range node.Up {
					pid := node.Up[(j/g.WProd(l)+k)%len(node.Up)]
					if alive(t.Ports[pid].Link) && canReach[t.PeerNode(pid)] {
						port = pid
						break
					}
				}
				if port == topo.None && node.Kind == topo.Host {
					broken++
				}
				out[id][j] = port
				canReach[id] = port != topo.None
			}
		}
	}
	return out, broken
}

// denseWalk follows dense rows from src to dst: the hops, and whether
// the walk arrived.
func denseWalk(t *topo.Topology, out [][]topo.PortID, src, dst int) (hops []route.Hop, ok bool) {
	cur := t.HostID(src)
	for len(hops) <= 2*t.Spec.H {
		if cur == t.HostID(dst) {
			return hops, true
		}
		p := out[cur][dst]
		if p == topo.None {
			return hops, false
		}
		hops = append(hops, route.Hop{Link: t.Ports[p].Link, Up: t.Ports[p].Dir == topo.Up})
		cur = t.PeerNode(p)
	}
	return hops, false
}

// checkAgainstDense compares lft with the dense oracle for fs. The one
// difference the sparse tables are allowed: a routable rowless host's
// entry towards a destination its leaf cannot forward is the uplink where
// the dense row said None — the walk fails at the leaf, one hop later.
func checkAgainstDense(t *testing.T, what string, tp *topo.Topology, fs *fabric.FaultSet, lft *route.LFT, res fabric.RerouteResult) {
	t.Helper()
	want, wantBroken := denseReroute(tp, fs.Alive)
	if res.BrokenPairs != wantBroken {
		t.Fatalf("%s: BrokenPairs %d, the dense rule counts %d", what, res.BrokenPairs, wantBroken)
	}
	n := tp.NumHosts()
	for id := range tp.Nodes {
		node := tp.Node(topo.NodeID(id))
		rowless := node.Kind == topo.Host && len(node.Up) == 1
		if lft.HasRow(topo.NodeID(id)) == rowless {
			t.Fatalf("%s: %v: row stored = %v, want rows exactly for nodes that choose", what, node, lft.HasRow(topo.NodeID(id)))
		}
		for j := 0; j < n; j++ {
			got := lft.OutPort(topo.NodeID(id), j)
			if got == want[id][j] {
				continue
			}
			leaf := tp.PeerNode(node.Up[0])
			if !rowless || want[id][j] != topo.None || got != node.Up[0] || lft.OutPort(leaf, j) != topo.None {
				t.Fatalf("%s: %v dst %d: port %d, dense row says %d", what, node, j, got, want[id][j])
			}
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			wantHops, ok := denseWalk(tp, want, src, dst)
			gotHops, err := lft.Trace(src, dst)
			if (err == nil) != ok || ok && !slices.Equal(gotHops, wantHops) {
				t.Fatalf("%s: %d->%d: walk %v (%v), dense walk %v (arrived %v)", what, src, dst, gotHops, err, wantHops, ok)
			}
			if src != dst && slices.Contains(res.UnroutableHosts, src) {
				// A cut-off host fails at the host, not one hop on.
				if lft.OutPort(tp.HostID(src), dst) != topo.None {
					t.Fatalf("%s: cut-off host %d still forwards towards %d", what, src, dst)
				}
			}
		}
	}
}

func TestImpliedHostEntryMatchesDenseRows(t *testing.T) {
	var specs []topo.PGFT
	for seed := int64(1); seed <= 10; seed++ {
		specs = append(specs, invariant.RandRLFT(seed), invariant.RandPGFT(seed))
	}
	specs = append(specs,
		topo.MustPGFT(2, []int{4, 3}, []int{2, 2}, []int{1, 1}), // w1 > 1: hosts keep rows
		topo.MustPGFT(2, []int{3, 3}, []int{1, 2}, []int{2, 1}), // p1 > 1: so do these
	)
	sawRows, sawRowless, sawShift := false, false, false
	for i, g := range specs {
		if g.NumHosts() > 160 {
			continue
		}
		tp := topo.MustBuild(g)
		if g.Wi(1)*g.Pi(1) > 1 {
			sawRows = true
		} else {
			sawRowless = true
		}
		rng := rand.New(rand.NewSource(int64(i)))
		fs := fabric.NewFaultSet(tp)
		check := func(state string) {
			t.Helper()
			lft, res, err := fs.RouteAround()
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstDense(t, fmt.Sprintf("%v %s %v", g, state, fs.FailedLinks()), tp, fs, lft, res)
			sawShift = sawShift || res.BrokenPairs > 0 && g.Wi(1)*g.Pi(1) == 1
		}
		check("healthy")
		var failed []topo.LinkID
		for k := 0; k < 1+len(tp.Links)/6; k++ { // fabric links and host uplinks alike
			l := topo.LinkID(rng.Intn(len(tp.Links)))
			fs.Fail(l)
			failed = append(failed, l)
		}
		check("faulted")
		fs.Fail(tp.Ports[tp.Host(rng.Intn(tp.NumHosts())).Up[0]].Link)
		check("host uplink down")
		for _, l := range failed[:len(failed)/2+1] {
			fs.Revive(l)
		}
		check("partly revived")
	}
	if !sawRows || !sawRowless || !sawShift {
		t.Fatalf("the sweep missed a shape: hosts with rows %v, rowless hosts %v, a pair failing at the leaf instead of the host %v", sawRows, sawRowless, sawShift)
	}
}
