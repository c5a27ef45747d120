package invariant

import (
	"errors"
	"fmt"

	"fattree/internal/route"
	"fattree/internal/topo"
)

// tracePair walks src->dst through the router with hop-level
// verification: every reported link must attach to the node the previous
// hop ended on, and the walk must end on the destination end-port. It
// returns the packed hops.
func tracePair(t *topo.Topology, r route.Router, src, dst int) ([]route.PathEntry, error) {
	cur := t.HostID(src)
	var hops []route.PathEntry
	var chainErr error
	err := r.Walk(src, dst, func(l topo.LinkID, up bool) {
		if chainErr != nil {
			return
		}
		if l < 0 || int(l) >= len(t.Links) {
			chainErr = fmt.Errorf("hop %d names link %d, out of range [0,%d)", len(hops), l, len(t.Links))
			return
		}
		lk := &t.Links[l]
		from, to := lk.Upper, lk.Lower
		if up {
			from, to = lk.Lower, lk.Upper
		}
		if t.Ports[from].Node != cur {
			chainErr = fmt.Errorf("hop %d traverses link %d from %v, but the path is at %v",
				len(hops), l, t.Node(t.Ports[from].Node), t.Node(cur))
			return
		}
		cur = t.Ports[to].Node
		hops = append(hops, route.PackEntry(l, up))
	})
	if err != nil {
		return nil, err
	}
	if chainErr != nil {
		return nil, chainErr
	}
	if cur != t.HostID(dst) {
		return nil, fmt.Errorf("path ends at %v, not host %d", t.Node(cur), dst)
	}
	return hops, nil
}

// skipNoRouter is the shared gate for routing checks on router-less
// instances.
func skipNoRouter() Result { return skipf("no router bound to the instance") }

// hasFaults reports whether the instance carries any degradation: dead
// links, unroutable hosts, or recorded broken pairs. Theorem-level checks
// (down-path uniqueness, contention freedom) only claim anything on
// intact fabrics and skip when it returns true.
func (in *Instance) hasFaults() bool {
	if in.Unroutable != nil {
		for j := 0; j < in.Topo.NumHosts(); j++ {
			if in.Unroutable(j) {
				return true
			}
		}
	}
	if in.Alive != nil {
		for l := range in.Topo.Links {
			if !in.Alive(topo.LinkID(l)) {
				return true
			}
		}
	}
	if c, ok := in.Router.(*route.Compiled); ok && c.NumBroken() > 0 {
		return true
	}
	return false
}

// checkRouteTotal verifies LFT totality: every ordered (src, dst) pair is
// either walked to delivery or explicitly recorded as broken, and pairs
// touching an unroutable host are never served.
func checkRouteTotal(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	t := in.Topo
	n := t.NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if in.unroutable(src) || in.unroutable(dst) {
				if !in.broken(src, dst) {
					return failf(&Counterexample{Pair: []int{src, dst}},
						"pair %d->%d touches an unroutable host but is not recorded broken", src, dst)
				}
				continue
			}
			if in.broken(src, dst) {
				continue
			}
			if _, err := tracePair(t, in.Router, src, dst); err != nil {
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
					"pair %d->%d is not delivered", src, dst)
			}
		}
	}
	return pass()
}

// checkRouteUpDown verifies the up*/down* shape every deadlock-free
// fat-tree routing must keep: once a path turns downwards it never
// climbs again.
func checkRouteUpDown(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	t := in.Topo
	n := t.NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || in.broken(src, dst) || in.unroutable(src) || in.unroutable(dst) {
				continue
			}
			hops, err := tracePair(t, in.Router, src, dst)
			if err != nil {
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
					"pair %d->%d failed to walk", src, dst)
			}
			descending := false
			for i, e := range hops {
				if route.EntryUp(e) && descending {
					return failf(&Counterexample{Pair: []int{src, dst}, Link: intp(int(route.EntryLink(e)))},
						"pair %d->%d climbs again at hop %d after descending", src, dst, i)
				}
				if !route.EntryUp(e) {
					descending = true
				}
			}
		}
	}
	return pass()
}

// checkRouteMinimal verifies minimality: every served path takes exactly
// 2*LCALevel(src, dst) hops — up to the lowest common ancestor sub-tree
// and straight down. This also holds on faulted fabrics, because paths a
// reroute cannot keep minimal must be recorded broken instead (the
// lenient-compile contract).
func checkRouteMinimal(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	t := in.Topo
	n := t.NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || in.broken(src, dst) || in.unroutable(src) || in.unroutable(dst) {
				continue
			}
			hops, err := tracePair(t, in.Router, src, dst)
			if err != nil {
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
					"pair %d->%d failed to walk", src, dst)
			}
			if want := 2 * t.Spec.LCALevel(src, dst); len(hops) != want {
				return failf(&Counterexample{Pair: []int{src, dst},
					Detail: fmt.Sprintf("%d hops, minimal is %d", len(hops), want)},
					"pair %d->%d takes a non-minimal path", src, dst)
			}
		}
	}
	return pass()
}

// checkRouteAlive verifies that no served path traverses a dead link.
// Freshly rerouted tables pass; stale tables computed before a fault
// fail, which is how ftcheck -fault demonstrates a failing verdict.
func checkRouteAlive(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	if in.Alive == nil {
		return pass() // no fault model: every link alive by definition
	}
	t := in.Topo
	n := t.NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || in.broken(src, dst) || in.unroutable(src) || in.unroutable(dst) {
				continue
			}
			hops, err := tracePair(t, in.Router, src, dst)
			if err != nil {
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
					"pair %d->%d failed to walk", src, dst)
			}
			for _, e := range hops {
				if l := route.EntryLink(e); !in.Alive(l) {
					return failf(&Counterexample{Pair: []int{src, dst}, Link: intp(int(l))},
						"pair %d->%d crosses dead link %d", src, dst, l)
				}
			}
		}
	}
	return pass()
}

// checkThm2DownUnique verifies Theorem 2 generically over any Router:
// under all-to-all traffic every switch down port carries traffic towards
// exactly one destination. The theorem needs the first two RLFT
// restrictions (constant CBB, single host uplink) and an intact fabric;
// the check skips otherwise — non-CBB PGFTs genuinely violate it.
func checkThm2DownUnique(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	g := in.Topo.Spec
	if !g.ConstantCBB() || !g.SingleHostUplink() {
		return skipf("Theorem 2 requires constant CBB and single host uplink; %v has neither guarantee", g)
	}
	if in.hasFaults() {
		return skipf("Theorem 2 claims nothing on degraded fabrics")
	}
	t := in.Topo
	n := t.NumHosts()
	// destOn[port] = the destination first seen descending through that
	// down port, or -1.
	destOn := make([]int, len(t.Ports))
	for i := range destOn {
		destOn[i] = -1
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			var clash Result
			hops, err := tracePair(t, in.Router, src, dst)
			if err != nil {
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
					"pair %d->%d failed to walk", src, dst)
			}
			for _, e := range hops {
				if route.EntryUp(e) {
					continue
				}
				l := route.EntryLink(e)
				port := t.Links[l].Upper
				switch destOn[port] {
				case -1:
					destOn[port] = dst
				case dst:
				default:
					clash = failf(&Counterexample{Pair: []int{src, dst}, Link: intp(int(l)),
						Detail: fmt.Sprintf("down port %d of %v carries destinations %d and %d",
							t.Ports[port].Num, t.Node(t.Ports[port].Node), destOn[port], dst)},
						"pair %d->%d shares a down port with destination %d", src, dst, destOn[port])
				}
				if clash.Status == Fail {
					return clash
				}
			}
		}
	}
	return pass()
}

// checkCompiledEquiv verifies the compiled path cache is a transparent
// acceleration: for every served pair the packed path equals the inner
// router's walk hop for hop.
func checkCompiledEquiv(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	c, ok := in.Router.(*route.Compiled)
	if !ok {
		return skipf("router %q is not a compiled path cache", in.Router.Label())
	}
	inner := c.Inner()
	n := in.Topo.NumHosts()
	var buf, cached []route.PathEntry
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || c.Broken(src, dst) {
				continue
			}
			var err error
			if cached, err = c.AppendPath(cached[:0], src, dst); err != nil {
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
					"AppendPath failed for served pair %d->%d", src, dst)
			}
			buf = buf[:0]
			err = inner.Walk(src, dst, func(l topo.LinkID, up bool) {
				buf = append(buf, route.PackEntry(l, up))
			})
			if err != nil {
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
					"inner router fails pair %d->%d the cache serves", src, dst)
			}
			if len(buf) != len(cached) {
				return failf(&Counterexample{Pair: []int{src, dst},
					Detail: fmt.Sprintf("cache has %d hops, inner walk %d", len(cached), len(buf))},
					"compiled path length diverges for pair %d->%d", src, dst)
			}
			for i, packed := range cached {
				if buf[i] != packed {
					return failf(&Counterexample{Pair: []int{src, dst},
						Detail: fmt.Sprintf("hop %d: cache link %d up=%v, inner link %d up=%v", i,
							route.EntryLink(packed), route.EntryUp(packed),
							route.EntryLink(buf[i]), route.EntryUp(buf[i]))},
						"compiled path diverges for pair %d->%d", src, dst)
				}
			}
		}
	}
	return pass()
}

// checkLenientBroken verifies the lenient-compile contract: a pair is in
// the broken bitset exactly when the inner router either fails to walk it
// or walks a non-minimal path; broken pairs answer ErrNoPath; NumBroken
// equals the bitset population; and unroutable hosts only appear in
// broken pairs.
func checkLenientBroken(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	c, ok := in.Router.(*route.Compiled)
	if !ok {
		return skipf("router %q is not a compiled path cache", in.Router.Label())
	}
	inner := c.Inner()
	t := in.Topo
	n := t.NumHosts()
	broken := 0
	hops := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			hops = 0
			walkErr := inner.Walk(src, dst, func(topo.LinkID, bool) { hops++ })
			minimal := walkErr == nil && hops == 2*t.Spec.LCALevel(src, dst)
			if b := c.Broken(src, dst); b != !minimal {
				detail := "inner walk is minimal"
				if walkErr != nil {
					detail = walkErr.Error()
				} else if !minimal {
					detail = fmt.Sprintf("inner walk takes %d hops, minimal is %d", hops, 2*t.Spec.LCALevel(src, dst))
				}
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: detail},
					"pair %d->%d: broken=%v disagrees with the inner router", src, dst, b)
			}
			if c.Broken(src, dst) {
				broken++
				if _, err := c.AppendPath(nil, src, dst); !errors.Is(err, route.ErrNoPath) {
					return failf(&Counterexample{Pair: []int{src, dst}},
						"broken pair %d->%d does not answer ErrNoPath (got %v)", src, dst, err)
				}
			} else if in.unroutable(src) || in.unroutable(dst) {
				return failf(&Counterexample{Pair: []int{src, dst}},
					"pair %d->%d touches an unroutable host but is served", src, dst)
			}
		}
	}
	if broken != c.NumBroken() {
		return failf(&Counterexample{Detail: fmt.Sprintf("bitset has %d pairs, NumBroken says %d", broken, c.NumBroken())},
			"NumBroken disagrees with the broken bitset")
	}
	return pass()
}
