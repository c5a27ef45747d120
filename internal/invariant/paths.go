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

// pathCheck is one promise about every served path: the rules, the
// hosts the caller knows to be unroutable (nil: none), the links a path
// may cross (nil: every link) and a predicate on the path (nil passes).
// The walker judges a tail once for every source that reads it, so pred
// must judge those sources alike: it may read src only through
// LCALevel(src, dst) and the head only through the path's length —
// docs/THEORY.md, "the tail lemma".
type pathCheck struct {
	unroutable func(int) bool
	rules      pathRule
	alive      func(topo.LinkID) bool
	pred       func(src, dst int, path []route.PathEntry) *Result
}

// servedPaths is the one served-path walker every path check reads: the
// route.* path checks, the Theorem 2 tally and the daemon's snapshot gate
// (LenientArena). Its Result is the failure of the lexicographically
// first failing (src, dst) pair, skipping self pairs and pairs a
// compiled arena records as broken; a pair touching an unroutable host
// fails under mustBreak and is skipped otherwise. A path must chain —
// every hop leaves the node the previous one reached, and the last
// reaches dst — while upDown is checked in the same pass; then alive and
// pred judge it. A path that both climbs after descending and fails to
// chain later fails as a climb.
//
// A compiled arena stores a path as head(src) ++ tail(row(src), dst),
// and the walker reads it that way: every (row, dst) tail that a served
// pair reads is judged once, through its lowest such source, with the
// row's tails read in one Tails call. That is the verdict of every
// source of the row whose head leaves its own host upwards into the
// same switch as the first one's, from the same leaf sub-tree and
// equally alive (the tail lemma); a source that differs in any of that
// — none in an arena Compile grouped — is judged pair by pair. Any
// other Router is walked pair by pair through Walk: every source is its
// own row.
func servedPaths(t *topo.Topology, r route.Router, pc pathCheck) Result {
	w := &pathWalker{pathCheck: pc, t: t, n: t.NumHosts(), hosts: t.ByLevel[0]}
	w.arena, _ = r.(*route.Compiled)
	w.bsrc = w.n
	w.ends = make([][2]topo.NodeID, len(t.Links)) // per link: its lower and upper node
	for l := range t.Links {
		w.ends[l] = [2]topo.NodeID{t.Ports[t.Links[l].Lower].Node, t.Ports[t.Links[l].Upper].Node}
	}
	w.un = make([]bool, w.n)
	for j := range w.un {
		w.un[j] = pc.unroutable != nil && pc.unroutable(j)
	}
	if pc.rules&mustBreak != 0 {
		w.unroutableServed()
	}
	if w.arena != nil {
		w.tails()
	} else {
		visit := func(l topo.LinkID, up bool) { w.path = append(w.path, route.PackEntry(l, up)) }
		for src := 0; src < w.n && src < w.bsrc; src++ {
			w.pairs(src, func(dst int) ([]route.PathEntry, error) {
				w.path = w.path[:0]
				err := r.Walk(src, dst, visit)
				return w.path, err
			})
		}
	}
	if w.bsrc < w.n {
		return w.best
	}
	return pass()
}

// pathWalker is servedPaths' state: the lowest failing pair found so
// far, (bsrc, bdst) with bsrc = n while there is none, and its Result.
type pathWalker struct {
	pathCheck
	t          *topo.Topology
	arena      *route.Compiled
	n          int
	hosts      []topo.NodeID // host j is node hosts[j]
	ends       [][2]topo.NodeID
	un         []bool
	bsrc, bdst int
	best       Result
	path       []route.PathEntry
}

// below reports whether pair (src, dst) precedes the lowest failure so far.
func (w *pathWalker) below(src, dst int) bool {
	return src < w.bsrc || src == w.bsrc && dst < w.bdst
}

func (w *pathWalker) fail(src, dst int, res Result) {
	if w.below(src, dst) {
		w.bsrc, w.bdst, w.best = src, dst, res
	}
}

// served reports whether the pair is one whose path the checks judge.
func (w *pathWalker) served(src, dst int) bool {
	return src != dst && !w.un[src] && !w.un[dst] && (w.arena == nil || !w.arena.Broken(src, dst))
}

// unroutableServed fails the lowest pair that touches an unroutable host
// and is not broken: the pairs each such host sends and receives.
func (w *pathWalker) unroutableServed() {
	broken := func(src, dst int) bool { return w.arena != nil && w.arena.Broken(src, dst) }
	for u, un := range w.un {
		if !un {
			continue
		}
		for j := 0; j < w.n; j++ {
			if j != u && !broken(u, j) {
				w.fail(u, j, unroutablePair(u, j))
				break
			}
		}
		for i := 0; i < w.n && w.below(i, u); i++ {
			if i != u && !broken(i, u) {
				w.fail(i, u, unroutablePair(i, u))
				break
			}
		}
	}
}

func unroutablePair(src, dst int) Result {
	return failf(&Counterexample{Pair: []int{src, dst}},
		"pair %d->%d touches an unroutable host but is not recorded broken", src, dst)
}

// pairs judges src's served pairs one by one, ascending, up to its first
// failure; path returns the pair's path or why it has none.
func (w *pathWalker) pairs(src int, path func(dst int) ([]route.PathEntry, error)) {
	for dst := 0; dst < w.n && w.below(src, dst); dst++ {
		if !w.served(src, dst) {
			continue
		}
		p, err := path(dst)
		if err != nil {
			w.fail(src, dst, undelivered(src, dst, "%v", err))
			return
		}
		if res := w.judge(src, dst, p); res != nil {
			w.fail(src, dst, *res)
			return
		}
	}
}

// tails walks a compiled arena row by row, in the order of the rows'
// lowest sources, until no pair of a later row can be lower than the
// failure found.
func (w *pathWalker) tails() {
	a, n, stride := w.arena, w.n, w.arena.Stride()
	readers := rowReaders(a, n)
	rows, dsts, cells := make([]int32, n), make([]int32, n), make([]uint32, n*stride)
	for j := range dsts {
		dsts[j] = int32(j)
	}
	for row, srcs := range readers {
		if len(srcs) == 0 || srcs[0] >= w.bsrc {
			break
		}
		alike, apart := w.split(srcs)
		if len(alike) == 0 && len(apart) == 0 {
			continue
		}
		for j := range rows {
			rows[j] = int32(row)
		}
		a.Tails(cells, rows, dsts)
		for dst := 0; dst < n; dst++ {
			src := -1 // the lowest source of the row whose pair to dst is served
			for _, s := range alike {
				if w.served(s, dst) {
					src = s
					break
				}
			}
			if src < 0 || !w.below(src, dst) {
				continue
			}
			_, head, _ := a.Row(src)
			w.path = route.AppendHops(w.path[:0], head, cells[dst*stride:dst*stride+stride])
			if res := w.judge(src, dst, w.path); res != nil {
				w.fail(src, dst, *res)
			}
		}
		for _, src := range apart {
			_, head, _ := a.Row(src)
			w.pairs(src, func(dst int) ([]route.PathEntry, error) {
				w.path = route.AppendHops(w.path[:0], head, cells[dst*stride:dst*stride+stride])
				return w.path, nil
			})
		}
	}
}

// rowReaders lists every row's sources, ascending; rows are numbered in
// the order of their lowest source.
func rowReaders(a *route.Compiled, n int) [][]int {
	var readers [][]int
	for src := 0; src < n; src++ {
		row, _, _ := a.Row(src)
		for len(readers) <= row {
			readers = append(readers, nil)
		}
		readers[row] = append(readers[row], src)
	}
	return readers
}

// split divides a row's routable sources into those the tail lemma lets
// its lowest one stand for — itself, and every other source whose head
// climbs from its own host into the switch the lowest one's reaches,
// from the same leaf sub-tree, as alive as it — and the rest.
func (w *pathWalker) split(srcs []int) (alike, apart []int) {
	var first route.PathEntry
	var entry topo.NodeID
	for _, src := range srcs {
		if w.un[src] {
			continue
		}
		_, head, shared := w.arena.Row(src)
		if alike == nil {
			alike, first = append(alike, src), head
			entry = w.climbsInto(src, head)
			continue
		}
		if !shared || entry < 0 || w.climbsInto(src, head) != entry || w.t.Spec.LCALevel(src, alike[0]) > 1 ||
			w.alive != nil && w.alive(route.EntryLink(head)) != w.alive(route.EntryLink(first)) {
			apart = append(apart, src)
		} else {
			alike = append(alike, src)
		}
	}
	return alike, apart
}

// climbsInto returns the node head climbs into from host src, or -1 when
// it is no head or not a climb from that host.
func (w *pathWalker) climbsInto(src int, head route.PathEntry) topo.NodeID {
	if head == route.NoEntry || !route.EntryUp(head) {
		return -1
	}
	l := route.EntryLink(head)
	if uint(l) >= uint(len(w.ends)) || w.ends[l][0] != w.hosts[src] {
		return -1
	}
	return w.ends[l][1]
}

// judge holds one served pair's path to the check, in the order the
// failures are reported: it chains and keeps the up*/down* shape hop by
// hop, it arrives, it crosses live links only, and pred passes it.
func (w *pathWalker) judge(src, dst int, path []route.PathEntry) *Result {
	cur, descending, dead := w.hosts[src], false, topo.LinkID(-1)
	for i, e := range path {
		l := route.EntryLink(e)
		if uint(l) >= uint(len(w.ends)) {
			res := undelivered(src, dst, "hop %d names link %d, out of range [0,%d)", i, l, len(w.ends))
			return &res
		}
		lower, upper := w.ends[l][0], w.ends[l][1]
		if !route.EntryUp(e) {
			lower, upper = upper, lower // descending: leave the upper node
			descending = true
		} else if descending && w.rules&upDown != 0 {
			return failp(&Counterexample{Pair: []int{src, dst}, Link: intp(int(l))},
				"pair %d->%d climbs again at hop %d after descending", src, dst, i)
		}
		if lower != cur {
			res := undelivered(src, dst, "hop %d traverses link %d from %v, but the path is at %v", i, l, w.t.Node(lower), w.t.Node(cur))
			return &res
		}
		if dead < 0 && w.alive != nil && !w.alive(l) {
			dead = l
		}
		cur = upper
	}
	if cur != w.hosts[dst] {
		res := undelivered(src, dst, "path ends at %v, not host %d", w.t.Node(cur), dst)
		return &res
	}
	if dead >= 0 {
		return failp(&Counterexample{Pair: []int{src, dst}, Link: intp(int(dead))},
			"pair %d->%d crosses dead link %d", src, dst, dead)
	}
	if w.pred != nil {
		return w.pred(src, dst, path)
	}
	return nil
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
// The fabric manager runs it, with liveness, as LenientArenaAlive.
func LenientArena(t *topo.Topology, c *route.Compiled, unroutable func(int) bool) error {
	return LenientArenaAlive(t, c, unroutable, nil)
}

// LenientArenaAlive is LenientArena that also holds every served path to
// links alive reports alive (the route.alive rule), in the same walk; a
// nil alive checks no liveness and costs nothing. This is the check the
// fabric manager runs on every candidate snapshot before swapping it in,
// with the fault set the snapshot was built for: a repair that left a
// touched column stale serves paths over the dead link and fails here.
func LenientArenaAlive(t *topo.Topology, c *route.Compiled, unroutable func(int) bool, alive func(topo.LinkID) bool) error {
	if res := servedPaths(t, c, pathCheck{unroutable: unroutable, rules: mustBreak | upDown, alive: alive}); res.Status == Fail {
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
// D-Mod-K on a complete RLFT returns 0. It takes two walks: the first
// finds, per down port, the lowest pair that descends through it and
// whether another destination shares it; the second fails the lowest
// pair whose destination is not that pair's. Neither depends on the
// order the walker visits pairs in. When a walk fails, the count covers
// only what it visited.
func DownPortConflicts(t *topo.Topology, r route.Router) (int, Result) {
	n := t.NumHosts()
	first := make([]int, len(t.Ports)) // per port: src*n+dst of the lowest pair descending through it, or -1
	for i := range first {
		first[i] = -1
	}
	shared := make([]bool, len(t.Ports))
	conflicts := 0
	tally := func(src, dst int, path []route.PathEntry) *Result {
		for _, e := range path {
			if route.EntryUp(e) {
				continue
			}
			port, pair := t.Links[route.EntryLink(e)].Upper, src*n+dst
			if first[port] < 0 {
				first[port] = pair
				continue
			}
			if first[port]%n != dst && !shared[port] {
				shared[port] = true
				conflicts++
			}
			first[port] = min(first[port], pair)
		}
		return nil
	}
	clash := func(src, dst int, path []route.PathEntry) *Result {
		for _, e := range path {
			if route.EntryUp(e) {
				continue
			}
			l := route.EntryLink(e)
			port := t.Links[l].Upper
			if other := first[port] % n; other != dst {
				return failp(&Counterexample{Pair: []int{src, dst}, Link: intp(int(l)),
					Detail: fmt.Sprintf("down port %d of %v carries destinations %d and %d",
						t.Ports[port].Num, t.Node(t.Ports[port].Node), other, dst)},
					"pair %d->%d shares a down port with destination %d", src, dst, other)
			}
		}
		return nil
	}
	if res := servedPaths(t, r, pathCheck{pred: tally}); res.Status == Fail || conflicts == 0 {
		return conflicts, res
	}
	return conflicts, servedPaths(t, r, pathCheck{pred: clash})
}
