package invariant

import (
	"regexp"
	"strconv"
	"testing"

	"fattree/internal/route"
	"fattree/internal/topo"
)

// hostileRouter serves its own hops for the pairs in paths and the inner
// router's walk for every other pair: a routing engine with a bug.
type hostileRouter struct {
	route.Router
	paths map[[2]int][]route.PathEntry
}

func (h *hostileRouter) Walk(src, dst int, visit func(topo.LinkID, bool)) error {
	p, ok := h.paths[[2]int{src, dst}]
	if !ok {
		return h.Router.Walk(src, dst, visit)
	}
	for _, e := range p {
		visit(route.EntryLink(e), route.EntryUp(e))
	}
	return nil
}

var pairInError = regexp.MustCompile(`pair (\d+)->(\d+)`)

// shapeDefect is one path defect planted in two pairs of a hostile
// router over D-Mod-K on rlft2:4,8 (4 hosts a leaf).
type shapeDefect struct {
	name  string
	pairs [2][2]int // the first damaged pair in (src, dst) order, then another
	check string
	path  func(src, dst int) []route.PathEntry // of minimal length where kept
	// kept: the lenient compile serves the defect, so the gate sees it.
	kept bool
}

// router plants the defect over lft.
func (d shapeDefect) router(lft *route.LFT) *hostileRouter {
	r := &hostileRouter{Router: lft, paths: map[[2]int][]route.PathEntry{}}
	for _, p := range d.pairs {
		r.paths[p] = d.path(p[0], p[1])
	}
	return r
}

// pathShapeDefects returns the defects, one per path promise, over
// tp = rlft2:4,8 and lft = D-Mod-K on it.
func pathShapeDefects(t *testing.T, tp *topo.Topology, lft *route.LFT) []shapeDefect {
	up := func(j int) topo.LinkID { return tp.Ports[tp.Host(j).Up[0]].Link }
	dmodk := func(src, dst int) []route.PathEntry {
		hops, err := lft.Trace(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		var p []route.PathEntry
		for _, h := range hops {
			p = append(p, route.PackEntry(h.Link, h.Up))
		}
		return p
	}
	return []shapeDefect{
		{"foreign-link", [2][2]int{{1, 6}, {6, 1}}, "route.total", func(src, dst int) []route.PathEntry {
			p := dmodk(src, dst)
			p[0] = route.PackEntry(up(dst), true) // dst's uplink, climbed from src
			return p
		}, true},
		{"climb-after-descending", [2][2]int{{1, 6}, {6, 1}}, "route.updown", func(src, dst int) []route.PathEntry {
			b := src ^ 1 // src's leaf-mate
			return []route.PathEntry{route.PackEntry(up(src), true), route.PackEntry(up(b), false),
				route.PackEntry(up(b), true), route.PackEntry(up(b), false)}
		}, true},
		{"valley", [2][2]int{{1, 6}, {6, 1}}, "route.updown", func(src, dst int) []route.PathEntry {
			b := src ^ 1 // bounce off src's leaf-mate, then take its path on
			p := []route.PathEntry{route.PackEntry(up(src), true), route.PackEntry(up(b), false)}
			return append(p, dmodk(b, dst)...)
		}, false},
		{"wrong-host", [2][2]int{{1, 6}, {6, 1}}, "route.total", func(src, dst int) []route.PathEntry {
			return dmodk(src, dst^1) // delivered to dst's leaf-mate
		}, true},
		{"detour", [2][2]int{{1, 2}, {2, 1}}, "route.minimal", func(src, dst int) []route.PathEntry {
			spine := tp.Ports[tp.LeafOf(src).Up[0]].Link
			return []route.PathEntry{route.PackEntry(up(src), true), route.PackEntry(spine, true),
				route.PackEntry(spine, false), route.PackEntry(up(dst), false)}
		}, false},
	}
}

// TestPathShapeDefects feeds the path checks one defect at a time, each
// planted in two pairs, and asserts that the snapshot gate (LenientArena,
// wherever the defect survives a lenient compile) and the matching
// route.* check both refuse it and name the same, lexicographically
// first, damaged pair.
func TestPathShapeDefects(t *testing.T) {
	tp := topo.MustBuild(must(topo.RLFT2(4, 8))) // 4 hosts a leaf
	lft := route.DModK(tp)
	for _, tc := range pathShapeDefects(t, tp, lft) {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.router(lft)
			want := tc.pairs[0]
			checks, err := Select(tc.check)
			if err != nil {
				t.Fatal(err)
			}
			refuses := func(what string, rr route.Router) {
				t.Helper()
				res := Run(NewInstance(tp, rr, nil), checks).Checks[0]
				if res.Status != Fail {
					t.Fatalf("%s over %s: %s, want fail", tc.check, what, res.Status)
				}
				if cx := res.Counterexample; cx == nil || len(cx.Pair) != 2 || [2]int{cx.Pair[0], cx.Pair[1]} != want {
					t.Fatalf("%s over %s names %+v, want pair %v", tc.check, what, res.Counterexample, want)
				}
			}
			refuses("the walk", r)

			c, err := route.CompileLenient(r)
			if err != nil {
				t.Fatal(err)
			}
			err = LenientArena(tp, c, nil)
			if !tc.kept {
				for _, p := range tc.pairs {
					if !c.Broken(p[0], p[1]) {
						t.Errorf("the lenient compile serves the %s of pair %v", tc.name, p)
					}
				}
				if err != nil {
					t.Fatalf("LenientArena refuses an arena that breaks the defect: %v", err)
				}
				return
			}
			if c.NumBroken() != 0 {
				t.Fatalf("the lenient compile broke %d pairs; the defect must reach the gate", c.NumBroken())
			}
			if err == nil {
				t.Fatalf("LenientArena accepts the %s", tc.name)
			}
			m := pairInError.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("LenientArena names no pair: %v", err)
			}
			src, _ := strconv.Atoi(m[1])
			dst, _ := strconv.Atoi(m[2])
			if [2]int{src, dst} != want {
				t.Fatalf("LenientArena names pair %d->%d, want %v: %v", src, dst, want, err)
			}
			refuses("the arena", c)
		})
	}
}
