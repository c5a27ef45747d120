package invariant

import (
	"fmt"

	"fattree/internal/route"
	"fattree/internal/topo"
)

// LenientArena validates a (possibly leniently) compiled path arena as a
// servable routing state: every non-broken pair's packed path must start
// at the source host, follow connected links, keep the up*/down* shape
// (the property that makes fat-tree routing deadlock free — credit
// cycles need a down-then-up turn), and end at the destination host; and
// pairs touching a host the caller knows to be unroutable must be marked
// broken, so reachability is total over what the arena claims to serve.
//
// It returns the first violation in ascending (src, dst) order, or nil.
// This is the check the fabric manager runs on every candidate snapshot
// before swapping it in; ftcheck reaches the same assertions through the
// route.* catalog checks.
func LenientArena(t *topo.Topology, c *route.Compiled, unroutable func(int) bool) error {
	n := t.NumHosts()
	ends := make([][2]topo.NodeID, len(t.Links)) // per link: its lower and upper node
	for l := range t.Links {
		ends[l] = [2]topo.NodeID{t.Ports[t.Links[l].Lower].Node, t.Ports[t.Links[l].Upper].Node}
	}
	un := make([]bool, n)
	for j := range un {
		un[j] = unroutable != nil && unroutable(j)
	}
	var path []route.PathEntry // one buffer for every pair
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || c.Broken(src, dst) {
				continue
			}
			if un[src] || un[dst] {
				return fmt.Errorf("invariant: pair %d->%d touches an unroutable host but is not marked broken", src, dst)
			}
			var err error
			if path, err = c.AppendPath(path[:0], src, dst); err != nil {
				return err
			}
			cur := t.HostID(src)
			descending := false
			for i, e := range path {
				l := route.EntryLink(e)
				if l < 0 || int(l) >= len(ends) {
					return fmt.Errorf("invariant: pair %d->%d hop %d names link %d, out of range [0,%d)", src, dst, i, l, len(ends))
				}
				lower, upper := ends[l][0], ends[l][1]
				if route.EntryUp(e) {
					if descending {
						return fmt.Errorf("invariant: pair %d->%d climbs after descending at hop %d", src, dst, i)
					}
					if lower != cur {
						return fmt.Errorf("invariant: pair %d->%d hop %d does not start at the current node", src, dst, i)
					}
					cur = upper
				} else {
					descending = true
					if upper != cur {
						return fmt.Errorf("invariant: pair %d->%d hop %d does not start at the current node", src, dst, i)
					}
					cur = lower
				}
			}
			if cur != t.HostID(dst) {
				return fmt.Errorf("invariant: pair %d->%d ends at node %d, want host %d", src, dst, cur, dst)
			}
		}
	}
	return nil
}
