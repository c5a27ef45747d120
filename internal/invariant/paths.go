package invariant

import (
	"fmt"

	"fattree/internal/route"
	"fattree/internal/topo"
)

// pathRule is what the served-path walker holds a path to beyond
// chaining from its source to its destination.
type pathRule uint8

const (
	// mustBreak fails a served pair that touches an unroutable host: such
	// a pair must be broken (the totality promise). Without it those pairs
	// are skipped, since the shape promises claim nothing about them.
	mustBreak pathRule = 1 << iota
	// upDown fails a path that climbs again after descending: the
	// up*/down* shape that keeps fat-tree routing deadlock free (credit
	// cycles need a down-then-up turn).
	upDown
)

// servedPaths is the one served-path walker every path check reads: the
// route.* path checks, the Theorem 2 tally and the daemon's snapshot gate
// (LenientArena). It visits the pairs r serves in ascending (src, dst)
// order, so the first failure is the lexicographically minimal
// counterexample, skipping self pairs and pairs a compiled arena records
// as broken. Each path is read into one reused hop buffer — from a
// compiled arena's tails (Tails, a row at a time), through Walk from any
// other Router — and
// must chain: every hop leaves the node the previous one reached, and the
// last reaches dst. The rules and then pred (nil passes) judge the path;
// the up*/down* rule is checked in the chaining pass itself, which keeps
// the gate a single pass over each path. The first failure ends the walk;
// a path that both climbs after descending and fails to chain later fails
// under upDown as a climb.
func servedPaths(t *topo.Topology, r route.Router, unroutable func(int) bool, rules pathRule,
	pred func(src, dst int, path []route.PathEntry) *Result) Result {
	n := t.NumHosts()
	ends := make([][2]topo.NodeID, len(t.Links)) // per link: its lower and upper node
	for l := range t.Links {
		ends[l] = [2]topo.NodeID{t.Ports[t.Links[l].Lower].Node, t.Ports[t.Links[l].Upper].Node}
	}
	un := make([]bool, n)
	for j := range un {
		un[j] = unroutable != nil && unroutable(j)
	}
	hosts := t.ByLevel[0] // host j is node hosts[j]
	arena, _ := r.(*route.Compiled)
	var path, walked []route.PathEntry
	visit := func(l topo.LinkID, up bool) { walked = append(walked, route.PackEntry(l, up)) }
	// An arena's tails are read a row at a time: every destination's, in
	// one Tails call, whenever src reads another row than src-1.
	var rows, dsts []int32
	var cells []uint32
	if arena != nil {
		rows, dsts, cells = make([]int32, n), make([]int32, n), make([]uint32, n*arena.Stride())
		for j := range dsts {
			dsts[j] = int32(j)
		}
	}
	for src := 0; src < n; src++ {
		var head route.PathEntry
		if arena != nil {
			row, h, _ := arena.Row(src)
			if head = h; src == 0 || rows[0] != int32(row) {
				for j := range rows {
					rows[j] = int32(row)
				}
				arena.Tails(cells, rows, dsts)
			}
		}
		for dst := 0; dst < n; dst++ {
			if src == dst || arena != nil && arena.Broken(src, dst) {
				continue
			}
			if un[src] || un[dst] {
				if rules&mustBreak == 0 {
					continue
				}
				return failf(&Counterexample{Pair: []int{src, dst}},
					"pair %d->%d touches an unroutable host but is not recorded broken", src, dst)
			}
			if arena != nil {
				stride := arena.Stride()
				path = route.AppendHops(path[:0], head, cells[dst*stride:dst*stride+stride])
			} else {
				walked = walked[:0]
				if err := r.Walk(src, dst, visit); err != nil {
					return undelivered(src, dst, "%v", err)
				}
				path = walked
			}
			cur, descending := hosts[src], false
			for i, e := range path {
				l := route.EntryLink(e)
				if uint(l) >= uint(len(ends)) {
					return undelivered(src, dst, "hop %d names link %d, out of range [0,%d)", i, l, len(ends))
				}
				lower, upper := ends[l][0], ends[l][1]
				if !route.EntryUp(e) {
					lower, upper = upper, lower // descending: leave the upper node
					descending = true
				} else if descending && rules&upDown != 0 {
					return failf(&Counterexample{Pair: []int{src, dst}, Link: intp(int(l))},
						"pair %d->%d climbs again at hop %d after descending", src, dst, i)
				}
				if lower != cur {
					return undelivered(src, dst, "hop %d traverses link %d from %v, but the path is at %v", i, l, t.Node(lower), t.Node(cur))
				}
				cur = upper
			}
			if cur != hosts[dst] {
				return undelivered(src, dst, "path ends at %v, not host %d", t.Node(cur), dst)
			}
			if pred != nil {
				if res := pred(src, dst, path); res != nil {
					return *res
				}
			}
		}
	}
	return pass()
}

// undelivered is the walker's failure for a pair whose path does not
// walk, chain or arrive; the detail says which.
func undelivered(src, dst int, format string, args ...any) Result {
	return failf(&Counterexample{Pair: []int{src, dst}, Detail: fmt.Sprintf(format, args...)},
		"pair %d->%d is not delivered", src, dst)
}

// LenientArena validates a (possibly leniently) compiled path arena as a
// servable routing state: the served-path walker under the mustBreak and
// upDown rules, so every pair the arena serves leads from its source to
// its destination over connected links and never climbs after
// descending, and pairs touching a host the caller knows to be
// unroutable must be marked broken, so reachability is total over what
// the arena claims to serve. The route.total and route.updown catalog
// checks read the same walker under one rule each.
//
// It returns the first violation in ascending (src, dst) order, or nil.
// This is the check the fabric manager runs on every candidate snapshot
// before swapping it in.
func LenientArena(t *topo.Topology, c *route.Compiled, unroutable func(int) bool) error {
	if res := servedPaths(t, c, unroutable, mustBreak|upDown, nil); res.Status == Fail {
		if d := res.Counterexample.Detail; d != "" {
			return fmt.Errorf("invariant: %s: %s", res.Error, d)
		}
		return fmt.Errorf("invariant: %s", res.Error)
	}
	return nil
}

// DownPortConflicts tallies Theorem 2 over all-to-all traffic through r:
// it returns the number of switch down ports that carry traffic towards
// more than one destination and, as a failing Result, the first clash in
// ascending (src, dst) order — a passing one when there is none. A pair
// that does not walk ends the tally, and the Result names it instead.
// D-Mod-K on a complete RLFT returns 0.
func DownPortConflicts(t *topo.Topology, r route.Router) (int, Result) {
	// destOn[port] = the destination first seen descending through that
	// down port, or -1.
	destOn := make([]int, len(t.Ports))
	for i := range destOn {
		destOn[i] = -1
	}
	clashed := make([]bool, len(t.Ports))
	conflicts, first := 0, pass()
	res := servedPaths(t, r, nil, 0, func(src, dst int, path []route.PathEntry) *Result {
		for _, e := range path {
			if route.EntryUp(e) {
				continue
			}
			l := route.EntryLink(e)
			switch port := t.Links[l].Upper; destOn[port] {
			case -1:
				destOn[port] = dst
			case dst:
			default:
				if !clashed[port] {
					clashed[port] = true
					conflicts++
				}
				if first.Status == Pass {
					first = failf(&Counterexample{Pair: []int{src, dst}, Link: intp(int(l)),
						Detail: fmt.Sprintf("down port %d of %v carries destinations %d and %d",
							t.Ports[port].Num, t.Node(t.Ports[port].Node), destOn[port], dst)},
						"pair %d->%d shares a down port with destination %d", src, dst, destOn[port])
				}
			}
		}
		return nil
	})
	if res.Status == Fail {
		return conflicts, res
	}
	return conflicts, first
}
