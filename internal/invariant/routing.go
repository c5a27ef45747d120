package invariant

import (
	"errors"
	"fmt"
	"slices"

	"fattree/internal/par"
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

// checkLenientBroken verifies the lenient-compile contract: a pair is
// broken exactly when the inner router fails to walk it or walks it
// non-minimally, broken pairs answer ErrNoPath, and NumBroken counts
// them (that pairs touching an unroutable host are broken is
// route.total's promise). It judges a broken pair's two causes, a cut
// source (Compiled.Cut) and a refused tail (Compiled.Refused), not the
// pairs: the inner router walks each (row, dst) tail once (WalkTail),
// rows in parallel, and each source of a shared row once, to see that
// its host forwards — its walk is its uplink then the tail (the tail
// lemma; Compile groups a shared row's sources under the switch they
// enter). A few per-row sets then give each source's lowest failing
// destination, the pair a pair walk would name; ErrNoPath is asked of
// each source's lowest broken pair.
func checkLenientBroken(in *Instance) Result {
	if in.Router == nil {
		return skipNoRouter()
	}
	c, ok := in.Router.(*route.Compiled)
	if !ok {
		return skipf("router %q is not a compiled path cache", in.Router.Label())
	}
	inner, g, n := c.Inner(), in.Topo.Spec, in.Topo.NumHosts()
	// Per row, the destinations whose tail is minimal, is refused exactly
	// when minimal (wrong for a source that forwards), is served, and is
	// refused.
	type rowSets struct {
		minimal, agree, served, refused lowest
		refusals                        int
	}
	readers := rowReaders(c, n)
	sets := make([]rowSets, len(readers))
	par.Do(len(readers), 0, nil, func(_ struct{}, row int) error {
		s, srcs, hops := &sets[row], readers[row], 0
		count := func(topo.LinkID, bool) { hops++ }
		none := lowest{n, n}
		*s = rowSets{none, none, none, none, 0}
		_, _, shared := c.Row(srcs[0])
		for dst := 0; dst < n; dst++ {
			refused, ref := c.Refused(row, dst), srcs[0] // ref: a source but dst, the minimal tail's measure
			if refused {
				s.refusals++
			}
			if ref == dst && len(srcs) == 1 {
				continue // no pair reads it
			} else if ref == dst {
				ref = srcs[1]
			}
			want := 2 * g.LCALevel(ref, dst)
			if shared {
				want--
			}
			hops = 0
			minimal := c.WalkTail(row, dst, count) == nil && hops == want
			s.minimal.add(minimal, dst)
			s.agree.add(refused == minimal, dst)
			s.served.add(!refused, dst)
			s.refused.add(refused, dst)
		}
		return nil
	})
	hops, broken := 0, 0
	count := func(topo.LinkID, bool) { hops++ }
	for src := 0; src < n; src++ {
		row, _, shared := c.Row(src)
		s, cut, forwards := &sets[row], c.Cut(src), true
		if shared {
			hops = 0
			inner.Walk(src, (src+1)%n, count)
			forwards = hops > 0
		}
		wrong, first := n, lowest{0, 1}.other(src) // the lowest destinations with a wrong broken mark, and broken
		switch {
		case cut && forwards:
			wrong = s.minimal.other(src)
		case !cut && forwards:
			wrong = s.agree.other(src)
		case !cut:
			wrong = s.served.other(src)
		}
		if !cut {
			first = s.refused.other(src)
		}
		var err error
		if first < n {
			_, err = c.AppendPath(nil, src, first)
		}
		bad := first < n && !errors.Is(err, route.ErrNoPath) // the lowest broken pair does not answer ErrNoPath
		switch dst := wrong; {
		case wrong < n && (wrong <= first || !bad):
			hops = 0
			walkErr := inner.Walk(src, dst, count)
			detail := "inner walk is minimal"
			if walkErr != nil {
				detail = walkErr.Error()
			} else if hops != 2*g.LCALevel(src, dst) {
				detail = fmt.Sprintf("inner walk takes %d hops, minimal is %d", hops, 2*g.LCALevel(src, dst))
			}
			return failf(&Counterexample{Pair: []int{src, dst}, Detail: detail},
				"pair %d->%d: broken=%v disagrees with the inner router", src, dst, cut || c.Refused(row, dst))
		case bad:
			return failf(&Counterexample{Pair: []int{src, first}},
				"broken pair %d->%d does not answer ErrNoPath (got %v)", src, first, err)
		}
		if cut {
			broken += n - 1
		} else if broken += s.refusals; c.Refused(row, src) {
			broken--
		}
	}
	if broken != c.NumBroken() {
		return failf(&Counterexample{Detail: fmt.Sprintf("%d pairs are broken, NumBroken says %d", broken, c.NumBroken())},
			"NumBroken disagrees with the broken pairs")
	}
	return pass()
}

// lowest keeps the two lowest destinations added to a set, in ascending
// order, n standing for none.
type lowest [2]int

func (l *lowest) add(in bool, dst int) {
	if in && l[0] == l[1] { // none yet
		l[0] = dst
	} else if in && l[1] > dst { // one: the second is still n
		l[1] = dst
	}
}

// other returns the lowest destination of the set but src.
func (l lowest) other(src int) int {
	if l[0] != src {
		return l[0]
	}
	return l[1]
}
