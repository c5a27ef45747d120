package invariant

import (
	"errors"
	"fmt"

	"fattree/internal/route"
	"fattree/internal/topo"
)

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
	return servedPaths(in.Topo, in.Router, in.Unroutable, mustBreak, nil)
}

// checkRouteUpDown verifies the up*/down* shape every deadlock-free
// fat-tree routing must keep: once a path turns downwards it never
// climbs again.
func checkRouteUpDown(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	return servedPaths(in.Topo, in.Router, in.Unroutable, upDown, nil)
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
	g := in.Topo.Spec
	return servedPaths(in.Topo, in.Router, in.Unroutable, 0, func(src, dst int, path []route.PathEntry) *Result {
		if want := 2 * g.LCALevel(src, dst); len(path) != want {
			return failp(&Counterexample{Pair: []int{src, dst},
				Detail: fmt.Sprintf("%d hops, minimal is %d", len(path), want)},
				"pair %d->%d takes a non-minimal path", src, dst)
		}
		return nil
	})
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
	return servedPaths(in.Topo, in.Router, in.Unroutable, 0, func(src, dst int, path []route.PathEntry) *Result {
		for _, e := range path {
			if l := route.EntryLink(e); !in.Alive(l) {
				return failp(&Counterexample{Pair: []int{src, dst}, Link: intp(int(l))},
					"pair %d->%d crosses dead link %d", src, dst, l)
			}
		}
		return nil
	})
}

// checkThm2DownUnique verifies Theorem 2 generically over any Router:
// under all-to-all traffic every switch down port carries traffic towards
// exactly one destination. It fails on the tally's first clash. The
// theorem needs the first two RLFT restrictions (constant CBB, single
// host uplink) and an intact fabric; the check skips otherwise — non-CBB
// PGFTs genuinely violate it.
func checkThm2DownUnique(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	g := in.Topo.Spec
	if broken := unmetRestrictions(g); broken != "" {
		return skipf("Theorem 2 requires constant CBB and single host uplink; %v breaks %s", g, broken)
	}
	if in.hasFaults() {
		return skipf("Theorem 2 claims nothing on degraded fabrics")
	}
	_, first := DownPortConflicts(in.Topo, in.Router)
	return first
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
