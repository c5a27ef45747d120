package invariant

import (
	"errors"
	"fmt"
	"slices"

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
	return servedPaths(in.Topo, in.Router, pathCheck{unroutable: in.Unroutable, rules: mustBreak})
}

// checkRouteUpDown verifies the up*/down* shape every deadlock-free
// fat-tree routing must keep: once a path turns downwards it never
// climbs again.
func checkRouteUpDown(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	return servedPaths(in.Topo, in.Router, pathCheck{unroutable: in.Unroutable, rules: upDown})
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
	return servedPaths(in.Topo, in.Router, pathCheck{unroutable: in.Unroutable, pred: minimalPath(in.Topo.Spec)})
}

// minimalPath is route.minimal's predicate: a path of 2*LCALevel(src,
// dst) hops.
func minimalPath(g topo.PGFT) func(src, dst int, path []route.PathEntry) *Result {
	return func(src, dst int, path []route.PathEntry) *Result {
		if want := 2 * g.LCALevel(src, dst); len(path) != want {
			return failp(&Counterexample{Pair: []int{src, dst},
				Detail: fmt.Sprintf("%d hops, minimal is %d", len(path), want)},
				"pair %d->%d takes a non-minimal path", src, dst)
		}
		return nil
	}
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
	return servedPaths(in.Topo, in.Router, pathCheck{unroutable: in.Unroutable, alive: in.Alive})
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
// router's walk hop for hop. It compares each tail a served pair reads
// with the inner router's walk of it (WalkTail), and each head once,
// through the source's lowest served pair: under forwarding tables a
// single-uplink host forwards every destination through its uplink, so
// a pair's walk is its head then the tail's. A failing tail is reported
// through its lowest served pair, compared whole.
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
	pair := func(src, dst int) *Result {
		var err error
		if cached, err = c.AppendPath(cached[:0], src, dst); err != nil {
			return failp(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
				"AppendPath failed for served pair %d->%d", src, dst)
		}
		buf = buf[:0]
		err = inner.Walk(src, dst, func(l topo.LinkID, up bool) {
			buf = append(buf, route.PackEntry(l, up))
		})
		return comparePaths(src, dst, buf, cached, err)
	}
	bsrc, bdst, best := n, 0, pass()
	below := func(src, dst int) bool { return src < bsrc || src == bsrc && dst < bdst }
	served := func(src, dst int) bool { return src != dst && !c.Broken(src, dst) }
	stride := c.Stride()
	cells := make([]uint32, stride)
	for row, srcs := range rowReaders(c, n) {
		if srcs[0] >= bsrc {
			break
		}
		for _, src := range srcs {
			if _, _, shared := c.Row(src); !shared {
				continue
			}
			for dst := 0; dst < n && below(src, dst); dst++ {
				if served(src, dst) {
					if res := pair(src, dst); res != nil {
						bsrc, bdst, best = src, dst, *res
					}
					break
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			src := -1
			for _, s := range srcs {
				if served(s, dst) {
					src = s
					break
				}
			}
			if src < 0 || !below(src, dst) {
				continue
			}
			buf = buf[:0]
			err := c.WalkTail(row, dst, func(l topo.LinkID, up bool) {
				buf = append(buf, route.PackEntry(l, up))
			})
			if err == nil && slices.Equal(buf, route.AppendHops(cached[:0], route.NoEntry, c.Tail(cells, row, dst))) {
				continue
			}
			if res := pair(src, dst); res != nil {
				bsrc, bdst, best = src, dst, *res
			}
		}
	}
	return best
}

// comparePaths is route.compiled-equiv's verdict on one pair: the inner
// router's walk (or its error) against the cached path.
func comparePaths(src, dst int, walked, cached []route.PathEntry, err error) *Result {
	if err != nil {
		return failp(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
			"inner router fails pair %d->%d the cache serves", src, dst)
	}
	if len(walked) != len(cached) {
		return failp(&Counterexample{Pair: []int{src, dst},
			Detail: fmt.Sprintf("cache has %d hops, inner walk %d", len(cached), len(walked))},
			"compiled path length diverges for pair %d->%d", src, dst)
	}
	for i, packed := range cached {
		if walked[i] != packed {
			return failp(&Counterexample{Pair: []int{src, dst},
				Detail: fmt.Sprintf("hop %d: cache link %d up=%v, inner link %d up=%v", i,
					route.EntryLink(packed), route.EntryUp(packed),
					route.EntryLink(walked[i]), route.EntryUp(walked[i]))},
				"compiled path diverges for pair %d->%d", src, dst)
		}
	}
	return nil
}

// checkLenientBroken verifies the lenient-compile contract: a pair is in
// the broken bitset exactly when the inner router either fails to walk it
// or walks a non-minimal path; broken pairs answer ErrNoPath; NumBroken
// equals the bitset population; and unroutable hosts only appear in
// broken pairs. The bitset is read pair by pair — it is per pair — but
// the inner router walks each tail once (WalkTail) and each source of a
// shared row once, to see that its host forwards at all: such a source's
// walk is its uplink then the tail, minimal when the tail is, for every
// source of the leaf sub-tree alike. A source outside its row's first
// source's leaf sub-tree, which Compile never groups, is walked pair by
// pair.
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
	g := t.Spec
	n := t.NumHosts()
	readers := rowReaders(c, n)
	hops := 0
	count := func(topo.LinkID, bool) { hops++ }
	walk := func(src, dst int) (bool, error) { // the inner router's walk of a pair: minimal, or why not
		hops = 0
		err := inner.Walk(src, dst, count)
		return err == nil && hops == 2*g.LCALevel(src, dst), err
	}
	minimal := make([]bool, n) // per destination: the current row's tail is, for its leaf sub-tree
	last, broken := -1, 0
	for src := 0; src < n; src++ {
		row, _, shared := c.Row(src)
		srcs := readers[row]
		if row != last {
			last = row
			for dst := range minimal {
				ref := -1 // a source of the row's leaf sub-tree other than dst: the minimal tail is measured from it
				for _, s := range srcs {
					if s != dst && g.LCALevel(s, srcs[0]) <= 1 {
						ref = s
						break
					}
				}
				if minimal[dst] = false; ref < 0 {
					continue // no pair of the sub-tree reads it
				}
				want := 2 * g.LCALevel(ref, dst)
				if shared {
					want--
				}
				hops = 0
				minimal[dst] = c.WalkTail(row, dst, count) == nil && hops == want
			}
		}
		forwards, alike := true, true
		if shared {
			hops = 0
			inner.Walk(src, (src+1)%n, count)
			forwards, alike = hops > 0, g.LCALevel(src, srcs[0]) <= 1
		}
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			want := forwards && minimal[dst]
			if !alike {
				want, _ = walk(src, dst)
			}
			if b := c.Broken(src, dst); b == want {
				ok, walkErr := walk(src, dst)
				detail := "inner walk is minimal"
				if walkErr != nil {
					detail = walkErr.Error()
				} else if !ok {
					detail = fmt.Sprintf("inner walk takes %d hops, minimal is %d", hops, 2*g.LCALevel(src, dst))
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
