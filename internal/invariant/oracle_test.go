package invariant

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fattree/internal/fabric"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// pairPaths is the served-path oracle: every ordered pair in ascending
// (src, dst) order, its whole path read from the arena (AppendPath) or
// walked (Walk), judged hop by hop, the first failure returned. It
// shares no iteration with servedPaths, which reads each tail once.
func pairPaths(t *topo.Topology, r route.Router, pc pathCheck) Result {
	n := t.NumHosts()
	ends := make([][2]topo.NodeID, len(t.Links))
	for l := range t.Links {
		ends[l] = [2]topo.NodeID{t.Ports[t.Links[l].Lower].Node, t.Ports[t.Links[l].Upper].Node}
	}
	un := func(j int) bool { return pc.unroutable != nil && pc.unroutable(j) }
	hosts := t.ByLevel[0]
	arena, _ := r.(*route.Compiled)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || arena != nil && arena.Broken(src, dst) {
				continue
			}
			if un(src) || un(dst) {
				if pc.rules&mustBreak == 0 {
					continue
				}
				return failf(&Counterexample{Pair: []int{src, dst}},
					"pair %d->%d touches an unroutable host but is not recorded broken", src, dst)
			}
			var path []route.PathEntry
			if arena != nil {
				var err error
				if path, err = arena.AppendPath(nil, src, dst); err != nil {
					return undelivered(src, dst, "%v", err)
				}
			} else if err := r.Walk(src, dst, func(l topo.LinkID, up bool) { path = append(path, route.PackEntry(l, up)) }); err != nil {
				return undelivered(src, dst, "%v", err)
			}
			cur, descending := hosts[src], false
			for i, e := range path {
				l := route.EntryLink(e)
				if uint(l) >= uint(len(ends)) {
					return undelivered(src, dst, "hop %d names link %d, out of range [0,%d)", i, l, len(ends))
				}
				lower, upper := ends[l][0], ends[l][1]
				if !route.EntryUp(e) {
					lower, upper = upper, lower
					descending = true
				} else if descending && pc.rules&upDown != 0 {
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
			for _, e := range path {
				if l := route.EntryLink(e); pc.alive != nil && !pc.alive(l) {
					return failf(&Counterexample{Pair: []int{src, dst}, Link: intp(int(l))},
						"pair %d->%d crosses dead link %d", src, dst, l)
				}
			}
			if pc.pred != nil {
				if res := pc.pred(src, dst, path); res != nil {
					return *res
				}
			}
		}
	}
	return pass()
}

// compiledEquivPairs is route.compiled-equiv's oracle: every served
// pair's cached path against the inner router's walk of the pair.
func compiledEquivPairs(in *Instance) Result {
	c, ok := in.Router.(*route.Compiled)
	if !ok {
		return skipf("router %q is not a compiled path cache", in.Router.Label())
	}
	n := in.Topo.NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || c.Broken(src, dst) {
				continue
			}
			cached, err := c.AppendPath(nil, src, dst)
			if err != nil {
				return failf(&Counterexample{Pair: []int{src, dst}, Detail: err.Error()},
					"AppendPath failed for served pair %d->%d", src, dst)
			}
			var walked []route.PathEntry
			err = c.Inner().Walk(src, dst, func(l topo.LinkID, up bool) { walked = append(walked, route.PackEntry(l, up)) })
			if res := comparePaths(src, dst, walked, cached, err); res != nil {
				return *res
			}
		}
	}
	return pass()
}

// lenientBrokenPairs is route.lenient-broken's oracle: the inner router
// walks every pair.
func lenientBrokenPairs(in *Instance) Result {
	c, ok := in.Router.(*route.Compiled)
	if !ok {
		return skipf("router %q is not a compiled path cache", in.Router.Label())
	}
	t, n, broken := in.Topo, in.Topo.NumHosts(), 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			hops := 0
			walkErr := c.Inner().Walk(src, dst, func(topo.LinkID, bool) { hops++ })
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
			}
		}
	}
	if broken != c.NumBroken() {
		return failf(&Counterexample{Detail: fmt.Sprintf("%d pairs are broken, NumBroken says %d", broken, c.NumBroken())},
			"NumBroken disagrees with the broken pairs")
	}
	return pass()
}

// downPortConflictsPairs is the Theorem 2 tally's oracle: one pass over
// the pair walk, the first destination seen on a down port its owner.
func downPortConflictsPairs(t *topo.Topology, r route.Router) (int, Result) {
	destOn := make([]int, len(t.Ports))
	for i := range destOn {
		destOn[i] = -1
	}
	clashed := make([]bool, len(t.Ports))
	conflicts, first := 0, pass()
	res := pairPaths(t, r, pathCheck{pred: func(src, dst int, path []route.PathEntry) *Result {
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
	}})
	if res.Status == Fail {
		return conflicts, res
	}
	return conflicts, first
}

// agree holds every served-path promise of an instance — the four route.*
// path checks, the snapshot gate's rules, the Theorem 2 tally — and the
// two arena checks to their pair-by-pair oracles: the identical Result,
// status, error and counterexample. It returns the names of the checks
// that fail.
func agree(t *testing.T, what string, in *Instance) (failed []string) {
	t.Helper()
	in.fill()
	paths := []struct {
		name string
		pc   pathCheck
	}{
		{"route.total", pathCheck{unroutable: in.Unroutable, rules: mustBreak}},
		{"route.updown", pathCheck{unroutable: in.Unroutable, rules: upDown}},
		{"gate", pathCheck{unroutable: in.Unroutable, rules: mustBreak | upDown, alive: in.Alive}},
		{"route.minimal", pathCheck{unroutable: in.Unroutable, pred: minimalPath(in.Topo.Spec)}},
		{"route.alive", pathCheck{unroutable: in.Unroutable, alive: in.Alive}},
	}
	same := func(name string, got, want Result) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s: the tail walk says\n%s\nthe pair walk says\n%s", what, name, describe(got), describe(want))
		}
		if got.Status == Fail {
			failed = append(failed, name)
		}
	}
	for _, p := range paths {
		same(p.name, servedPaths(in.Topo, in.Router, p.pc), pairPaths(in.Topo, in.Router, p.pc))
	}
	k, got := DownPortConflicts(in.Topo, in.Router)
	kWant, want := downPortConflictsPairs(in.Topo, in.Router)
	same("down-port tally", got, want)
	if got.Status == Pass && k != kWant {
		t.Fatalf("%s: the tail walk tallies %d down-port conflicts, the pair walk %d", what, k, kWant)
	}
	if _, ok := in.Router.(*route.Compiled); ok {
		same("route.compiled-equiv", checkCompiledEquiv(in), compiledEquivPairs(in))
		same("route.lenient-broken", checkLenientBroken(in), lenientBrokenPairs(in))
	}
	return failed
}

func describe(r Result) string {
	s := fmt.Sprintf("%s %q", r.Status, r.Error)
	if cx := r.Counterexample; cx != nil {
		s += fmt.Sprintf(" pair %v detail %q", cx.Pair, cx.Detail)
		if cx.Link != nil {
			s += fmt.Sprintf(" link %d", *cx.Link)
		}
	}
	return s
}

// TestTailWalkAgreesOnShapeDefects: every planted path defect, over the
// raw hostile router and over its strict and lenient arenas, and an
// unroutable host whose pairs nobody broke — the tail walk names what
// the pair walk names.
func TestTailWalkAgreesOnShapeDefects(t *testing.T) {
	tp := topo.MustBuild(must(topo.RLFT2(4, 8)))
	lft := route.DModK(tp)
	for _, d := range pathShapeDefects(t, tp, lft) {
		r := d.router(lft)
		if failed := agree(t, d.name+" walked", NewInstance(tp, r, nil)); !slices.Contains(failed, d.check) {
			t.Errorf("%s walked: %s passes", d.name, d.check)
		}
		c, err := route.CompileLenient(r)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, d.name+" compiled leniently", NewInstance(tp, c, nil))
		if c, err := route.Compile(r); err == nil {
			agree(t, d.name+" compiled", NewInstance(tp, c, nil))
		}
	}
	c, err := route.Compile(lft)
	if err != nil {
		t.Fatal(err)
	}
	for _, un := range [][]int{{3}, {0}, {31}, {5, 17}} {
		in := NewInstance(tp, c, nil)
		in.Unroutable = func(j int) bool { return slices.Contains(un, j) }
		if failed := agree(t, fmt.Sprintf("hosts %v unroutable, nothing broken", un), in); !slices.Contains(failed, "gate") {
			t.Errorf("hosts %v unroutable: the gate passes served pairs touching them", un)
		}
	}
}

// TestTailWalkAgreesOnRandomFabrics: seeded PGFTs (multi-uplink hosts,
// non-CBB trees) and RLFTs under D-Mod-K, rank-compacted partial jobs,
// the naive and random-minhop tables and S-Mod-K, compiled and walked.
func TestTailWalkAgreesOnRandomFabrics(t *testing.T) {
	var specs []topo.PGFT
	for seed := int64(0); seed < 8; seed++ {
		specs = append(specs, RandPGFT(seed), RandRLFT(seed))
	}
	for i, g := range specs {
		if g.NumHosts() > 256 {
			continue // the pair oracle is quadratic
		}
		tp := topo.MustBuild(g)
		rng := rand.New(rand.NewSource(int64(i)))
		var active []int
		for h := 0; h < tp.NumHosts(); h++ {
			if rng.Intn(3) > 0 {
				active = append(active, h)
			}
		}
		routers := []route.Router{route.DModK(tp), route.DModKNaive(tp), route.MinHopRandom(tp, int64(i)), route.NewSModK(tp)}
		if partial, err := route.DModKActive(tp, active); err == nil {
			routers = append(routers, partial)
		}
		for _, r := range routers {
			what := fmt.Sprintf("%v under %s", g, r.Label())
			agree(t, what+" walked", NewInstance(tp, r, nil))
			if c, err := route.CompileLenient(r); err == nil {
				agree(t, what+" compiled", NewInstance(tp, c, nil))
			}
		}
	}
}

// TestTailWalkAgreesUnderFaultScripts drives seeded fault scripts
// through fabric.Repair and fabric.Refuse — fabric links and host
// uplinks, whole cluster and a partial job — and through three repairs
// broken on purpose: one touched column left stale (re-walked from the
// healthy arena), the repaired tables edited under a stored column
// after the arena was built, and a cut host reconnected likewise. A
// correct repair passes every route check; the broken ones fail, and
// the tail walk names what the pair walk names throughout.
func TestTailWalkAgreesUnderFaultScripts(t *testing.T) {
	for _, g := range []topo.PGFT{must(topo.RLFT2(4, 8)), RandRLFT(3), RandRLFT(5), must(topo.KAryNTree(2, 3))} {
		tp := topo.MustBuild(g)
		healthy, err := fabric.Healthy(route.DModK(tp))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 6; seed++ {
			fs := fabric.NewFaultSet(tp)
			rng := rand.New(rand.NewSource(seed))
			if err := fs.FailRandomFabricLinksRand(1+int(seed)%3, rng); err != nil {
				continue
			}
			if seed%2 == 0 {
				fs.Fail(tp.Ports[tp.Host(rng.Intn(tp.NumHosts())).Up[0]].Link)
			}
			rank := []int(nil)
			if seed%3 == 0 {
				active := rng.Perm(tp.NumHosts())[:tp.NumHosts()/2]
				slices.Sort(active)
				if rank, err = route.ActiveRanks(tp.NumHosts(), active); err != nil {
					t.Fatal(err)
				}
			}
			instance := func(tb *fabric.Tables) *Instance {
				in := NewInstance(tp, tb.Compiled, nil)
				in.Alive = fs.Alive
				in.Unroutable = func(j int) bool { return slices.Contains(tb.Unroutable, j) }
				return in
			}
			what := fmt.Sprintf("%v, seed %d", g, seed)
			rep, err := fs.Repair(healthy, rank)
			if err != nil {
				t.Fatal(err)
			}
			// Theorem 2 claims nothing on a degraded fabric: the tally may fail.
			pathFailures := func(what string, tb *fabric.Tables) []string {
				return slices.DeleteFunc(agree(t, what, instance(tb)), func(name string) bool { return name == "down-port tally" })
			}
			if failed := pathFailures(what+" repaired", rep); len(failed) > 0 {
				t.Fatalf("%s: the repair fails %v", what, failed)
			}
			refused, err := fs.Refuse(healthy)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, what+" refused", instance(refused))

			// The columns the repair moved: those in which a routable
			// source's path differs from the healthy arena's, or its pair
			// was broken. (A cut-off host's pairs are broken whatever
			// columns a repair re-walks.)
			var moved []int
			for dst := 0; dst < tp.NumHosts(); dst++ {
				for src := 0; src < tp.NumHosts(); src++ {
					if slices.Contains(rep.Unroutable, src) {
						continue
					}
					a, errA := healthy.Compiled.AppendPath(nil, src, dst)
					b, errB := rep.Compiled.AppendPath(nil, src, dst)
					if !slices.Equal(a, b) || (errA == nil) != (errB == nil) {
						moved = append(moved, dst)
						break
					}
				}
			}
			if len(moved) == 0 {
				continue
			}
			stale, err := healthy.Compiled.Repatch(rep.LFT, moved[1:])
			if err != nil {
				t.Fatal(err)
			}
			staleTables := *rep
			staleTables.Compiled = stale
			if failed := pathFailures(what+" with a stale column", &staleTables); len(failed) == 0 {
				t.Errorf("%s: a repair that leaves column %d stale passes every check", what, moved[0])
			}
			// The daemon repairs with no rank, so every column it moves is
			// one a dead link touched, and the gate must refuse the stale
			// one. A rank-compacted repair also moves columns no fault
			// touched; left stale, such a column is the healthy full-rank
			// one, alive and servable, and only route.compiled-equiv sees it.
			if rank == nil {
				unroutable := func(j int) bool { return slices.Contains(rep.Unroutable, j) }
				if err := LenientArenaAlive(tp, stale, unroutable, fs.Alive); err == nil {
					t.Errorf("%s: a repair that leaves column %d stale passes the daemon's gate", what, moved[0])
				}
			}

			edited := rep.LFT.Clone(rep.LFT.Name)
			patched, err := healthy.Compiled.Repatch(edited, moved)
			if err != nil {
				t.Fatal(err)
			}
			dst := moved[len(moved)-1]
			for _, sw := range tp.ByLevel[1] { // send dst's traffic at a leaf out of another port
				if p := edited.OutPort(sw, dst); p != topo.None {
					node := tp.Node(sw)
					edited.SetOutPort(sw, dst, node.FirstPort()+(p-node.FirstPort()+1)%topo.PortID(node.NumPorts()))
					break
				}
			}
			editedTables := *rep
			editedTables.Compiled = patched
			if failed := pathFailures(what+" with tables edited under the arena", &editedTables); len(failed) == 0 {
				t.Errorf("%s: an arena that disagrees with its tables in column %d passes every check", what, dst)
			}

			if len(rep.Unroutable) == 0 {
				continue
			}
			// A cut host given its uplink back after the arena was built:
			// the arena still breaks every pair it sends, and the tables
			// now walk them.
			h := rep.Unroutable[0]
			reconnected := rep.LFT.Clone(rep.LFT.Name)
			if patched, err = healthy.Compiled.Repatch(reconnected, moved); err != nil {
				t.Fatal(err)
			}
			reconnected.SetOutPort(tp.HostID(h), (h+1)%tp.NumHosts(), tp.Host(h).Up[0])
			reconnectedTables := *rep
			reconnectedTables.Compiled = patched
			if failed := agree(t, what+" with a cut host reconnected under the arena", instance(&reconnectedTables)); !slices.Contains(failed, "route.lenient-broken") {
				t.Errorf("%s: an arena that cuts host %d off after its tables reconnected it passes route.lenient-broken", what, h)
			}
		}
	}
}
