package fmgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fattree/internal/fabric"
	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// orderedPairs lists every ordered src!=dst pair among a job's hosts —
// the full flow set its global collectives can generate. Together with
// pairListResp it is the oracle of what a job-mode answer must expand
// to; the rebuild path itself never lists them.
func orderedPairs(hosts []int) [][2]uint32 {
	out := make([][2]uint32, 0, len(hosts)*(len(hosts)-1))
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				out = append(out, [2]uint32{uint32(s), uint32(d)})
			}
		}
	}
	return out
}

// pairListResp is the oracle of both modes: the batch resolved one pair
// at a time through PackedPath into the message AppendFrame encodes —
// what the serving path must equal without ever building it.
func pairListResp(epoch uint64, engName string, tb *fabric.Tables, pairs [][2]uint32) (*wire.RouteSetResp, error) {
	resp := &wire.RouteSetResp{Epoch: epoch, Engine: engName, Routing: tb.Compiled.Label()}
	for _, p := range pairs {
		pr := wire.PairRoute{Src: p[0], Dst: p[1]}
		if !tb.Compiled.Broken(int(p[0]), int(p[1])) {
			path, err := tb.Compiled.PackedPath(int(p[0]), int(p[1]))
			if err != nil {
				return nil, err
			}
			pr.OK, pr.Hops = true, make([]uint32, len(path))
			for k, e := range path {
				pr.Hops[k] = uint32(e)
			}
		}
		resp.Pairs = append(resp.Pairs, pr)
	}
	return resp, nil
}

// equalRouteSets compares two pair lists entry for entry (nil and empty
// hops alike: only a not-OK pair's hops are nil on either side).
func equalRouteSets(got, want *wire.RouteSetResp) error {
	if got.Epoch != want.Epoch || got.Engine != want.Engine || got.Routing != want.Routing {
		return fmt.Errorf("stamp %d/%s/%s, want %d/%s/%s", got.Epoch, got.Engine, got.Routing, want.Epoch, want.Engine, want.Routing)
	}
	if len(got.Pairs) != len(want.Pairs) {
		return fmt.Errorf("%d pairs, want %d", len(got.Pairs), len(want.Pairs))
	}
	for i, w := range want.Pairs {
		g := got.Pairs[i]
		if g.Src != w.Src || g.Dst != w.Dst || g.OK != w.OK || len(g.Hops) != len(w.Hops) || (g.Hops == nil) != (w.Hops == nil) {
			return fmt.Errorf("pair %d: %+v, want %+v", i, g, w)
		}
		for k := range w.Hops {
			if g.Hops[k] != w.Hops[k] {
				return fmt.Errorf("pair %d (%d->%d) hop %d: %d, want %d", i, w.Src, w.Dst, k, g.Hops[k], w.Hops[k])
			}
		}
	}
	return nil
}

// checkFactored holds one job under one set of tables to promise 2:
// what the daemon ships, once through the wire and expanded, is the pair
// list pairs mode would have resolved, entry for entry.
func checkFactored(t *testing.T, what string, tb *fabric.Tables, hosts []int) {
	t.Helper()
	want, err := pairListResp(7, servedEngine, tb, orderedPairs(hosts))
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	jw := encodeJobFrame(1, len(want.Pairs), factorRouteSet(7, tb, hosts))
	if jw.Code != 200 {
		t.Fatalf("%s: stored as code %d", what, jw.Code)
	}
	msg, err := wire.ReadMessage(bytes.NewReader(jw.Frame))
	if err != nil {
		t.Fatalf("%s: the daemon's own frame does not decode: %v", what, err)
	}
	if err := equalRouteSets(msg.(*wire.RouteSetFactored).Expand(), want); err != nil {
		t.Fatalf("%s (%d hosts, %d broken in arena): %v", what, len(hosts), tb.Compiled.NumBroken(), err)
	}
}

// TestFactoredEqualsPairList is the wall: seeded random fabrics x
// {healthy, fabric-link faults, a host-uplink fault} x {whole fabric,
// shuffled partial job} x {shared rows, S-Mod-K's private rows, hosts
// with several uplinks}.
func TestFactoredEqualsPairList(t *testing.T) { t.Run("32-bit cells", testFactoredEqualsPairList) }

func testFactoredEqualsPairList(t *testing.T) {
	var specs []topo.PGFT
	for seed := int64(1); seed <= 10; seed++ {
		specs = append(specs, invariant.RandRLFT(seed), invariant.RandPGFT(seed))
	}
	specs = append(specs,
		topo.MustPGFT(2, []int{4, 3}, []int{2, 2}, []int{1, 1}), // w1 > 1: two leaves per host
		topo.MustPGFT(2, []int{3, 3}, []int{1, 2}, []int{2, 1}), // p1 > 1: two cables to one leaf
	)
	sawBroken, sawPrivate, sawShared := false, false, false
	for i, g := range specs {
		if g.NumHosts() < 2 || g.NumHosts() > 200 {
			continue // all pairs x engines x fault states: keep tier-1 fast
		}
		tp := topo.MustBuild(g)
		n := tp.NumHosts()
		rng := rand.New(rand.NewSource(int64(i)))

		faults := map[string]*fabric.FaultSet{"healthy": nil}
		links := fabric.NewFaultSet(tp)
		for k := 0; k < 2 && len(tp.Links) > n; k++ {
			links.Fail(topo.LinkID(n + rng.Intn(len(tp.Links)-n)))
		}
		faults["fabric links"] = links
		uplink := fabric.NewFaultSet(tp)
		for _, p := range tp.Host(rng.Intn(n)).Up { // every uplink: the host goes dark
			uplink.Fail(tp.Ports[p].Link)
		}
		faults["host uplink"] = uplink

		whole := make([]int, n)
		for h := range whole {
			whole[h] = h
		}
		jobs := map[string][]int{"whole": whole, "partial shuffled": rng.Perm(n)[:1+rng.Intn(n)]}

		for _, engName := range []string{"dmodk", "smodk"} {
			rt := route.Router(route.DModK(tp))
			if engName == "smodk" {
				rt = route.NewSModK(tp)
			}
			healthy, err := fabric.Healthy(rt)
			if err != nil {
				t.Fatal(err)
			}
			for fname, fs := range faults {
				tb := healthy
				switch {
				case fs == nil:
				case engName == "dmodk":
					tb, err = fs.Repair(healthy, nil)
				default:
					tb, err = fs.Refuse(healthy)
				}
				if err != nil {
					t.Fatalf("%v %s %s: %v", g, engName, fname, err)
				}
				for jname, hosts := range jobs {
					checkFactored(t, fmt.Sprintf("%v %s, %s, %s job", g, engName, fname, jname), tb, hosts)
				}
				sawBroken = sawBroken || tb.Compiled.NumBroken() > 0
				_, _, shared := tb.Compiled.Row(0)
				sawShared, sawPrivate = sawShared || shared, sawPrivate || !shared
			}
		}
	}
	if !sawBroken || !sawPrivate || !sawShared {
		t.Fatalf("the sweep missed a shape: broken pairs %v, private rows %v, shared rows %v", sawBroken, sawPrivate, sawShared)
	}
}

// TestPatchedExpansionUnderFaultScripts is the "incremental ≡ full" wall
// of the client's patched refetch, on the messages the daemon really
// ships: over a seeded fail/revive script — faults accumulate, host
// uplinks go dark so whole rows and columns break, the job's host list
// changes twice, and now and then a replica answers with an older
// epoch — every set patched from the one before it equals the pair-mode
// oracle entry for entry, and the set it was patched from is bit for
// bit what it was.
func TestPatchedExpansionUnderFaultScripts(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		steps int
	}{{"324", 24}, {"rlft2:4,8", 80}} {
		tp := buildTopo(t, tc.spec)
		healthy, err := fabric.Healthy(route.DModK(tp))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(20))
		n := tp.NumHosts()
		whole := make([]int, n)
		for h := range whole {
			whole[h] = h
		}
		partial := rng.Perm(n)[:n/2]
		hosts, fs := whole, fabric.NewFaultSet(tp)

		type shipped struct {
			msg  *wire.RouteSetFactored
			want *wire.RouteSetResp
		}
		ship := func(epoch uint64) shipped {
			tb, err := fs.Repair(healthy, nil)
			if err != nil {
				t.Fatalf("%s epoch %d: %v", tc.spec, epoch, err)
			}
			want, err := pairListResp(epoch, servedEngine, tb, orderedPairs(hosts))
			if err != nil {
				t.Fatal(err)
			}
			jw := encodeJobFrame(1, len(want.Pairs), factorRouteSet(epoch, tb, hosts))
			msg, err := wire.ReadMessage(bytes.NewReader(jw.Frame))
			if err != nil {
				t.Fatalf("%s epoch %d: code %d, %v", tc.spec, epoch, jw.Code, err)
			}
			return shipped{msg.(*wire.RouteSetFactored), want}
		}
		// patch holds one ExpandFrom to the contract and reports how many
		// pairs still read the hop memory of the set it started from.
		patch := func(what string, next shipped, prev *wire.RouteSetFactored, set *wire.RouteSetResp) (*wire.RouteSetResp, int) {
			before := wire.EncodeFrame(set)
			got := next.msg.ExpandFrom(prev, set)
			if err := equalRouteSets(got, next.want); err != nil {
				t.Fatalf("%s %s, failed links %v: %v", tc.spec, what, fs.FailedLinks(), err)
			}
			if !bytes.Equal(wire.EncodeFrame(set), before) {
				t.Fatalf("%s %s: the set handed out earlier was written to", tc.spec, what)
			}
			shared := 0
			for k := 0; len(got.Pairs) == len(set.Pairs) && k < len(got.Pairs); k++ {
				if g, s := got.Pairs[k].Hops, set.Pairs[k].Hops; len(g) > 0 && len(s) > 0 && &g[0] == &s[0] {
					shared++
				}
			}
			return got, shared
		}

		history := []shipped{ship(2)}
		set := history[0].msg.Expand()
		if err := equalRouteSets(set, history[0].want); err != nil {
			t.Fatal(err)
		}
		mostlyShared, sawBroken := 0, false
		for step := 1; step <= tc.steps; step++ {
			switch failed := fs.FailedLinks(); {
			case len(failed) > 0 && rng.Intn(5) < 2:
				fs.Revive(failed[rng.Intn(len(failed))])
			case rng.Intn(4) == 0: // a host uplink: the host goes dark
				fs.Fail(tp.Ports[tp.Host(rng.Intn(n)).Up[0]].Link)
			default:
				fs.Fail(topo.LinkID(n + rng.Intn(len(tp.Links)-n)))
			}
			switch step {
			case tc.steps / 2:
				hosts = partial
			case tc.steps/2 + 3:
				hosts = whole
			}
			cur := history[len(history)-1]
			next := ship(uint64(step + 2))
			if step%7 == 0 { // a lagging replica answers first: patched all the same, then refused by the client
				old := history[len(history)-1-rng.Intn(min(3, len(history)))]
				patch(fmt.Sprintf("step %d, older epoch %d", step, old.msg.Epoch), old, cur.msg, set)
			}
			var shared int
			set, shared = patch(fmt.Sprintf("step %d", step), next, cur.msg, set)
			if 2*shared > len(set.Pairs) {
				mostlyShared++
			}
			sawBroken = sawBroken || len(next.msg.Broken) > 0
			history = append(history, next)
		}
		if !sawBroken || mostlyShared < tc.steps/3 {
			t.Fatalf("%s: script too tame or patching too rare: broken pairs %v, %d of %d steps kept most of their hop memory",
				tc.spec, sawBroken, mostlyShared, tc.steps)
		}
		t.Logf("%s: %d steps, %d kept most of their hop memory, %d links down at the end", tc.spec, tc.steps, mostlyShared, fs.Failed())
	}
}

// TestJobFrameIsFactored pins the 324-host numbers the format exists
// for: the precomputed frame of the whole-cluster job is under 100 KB,
// carries 18 rows, and the daemon's own build of it matches the oracle
// with a host dark.
func TestJobFrameIsFactored(t *testing.T) {
	tp := buildTopo(t, "324")
	healthy, err := fabric.Healthy(route.DModK(tp))
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]int, tp.NumHosts())
	for h := range hosts {
		hosts[h] = h
	}
	fs := fabric.NewFaultSet(tp)
	fs.Fail(tp.Ports[tp.Host(200).Up[0]].Link)
	for name, faults := range map[string]*fabric.FaultSet{"healthy": fabric.NewFaultSet(tp), "host 200 dark": fs} {
		tb, err := faults.Repair(healthy, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := factorRouteSet(3, tb, hosts)
		frame := wire.EncodeFrame(f)
		if f.Rows != 18 || len(f.TailOff) != 18*324+1 || len(frame) >= 100_000 {
			t.Fatalf("%s: %d rows, %d tails, %d-byte frame; want 18, 5832, < 100 KB", name, f.Rows, len(f.TailOff)-1, len(frame))
		}
		if want := 2 * 323 * len(tb.Unroutable); len(f.Broken) != want {
			t.Fatalf("%s: %d broken pairs listed, want %d", name, len(f.Broken), want)
		}
		checkFactored(t, name, tb, hosts)
	}
}

// TestRerouteRecordCountsRewalkedColumns: the reroute record says how
// many destination columns the repair re-walked — one for a host's only
// cable on the paper's 324-host cluster, where the host's cut mark
// covers every pair it sends and only the column towards it changes.
func TestRerouteRecordCountsRewalkedColumns(t *testing.T) {
	m := newManager(t, "324", nil)
	m.Start()
	if _, err := m.InjectFaults([]topo.LinkID{m.t.Ports[m.t.Host(5).Up[0]].Link}, nil, 0); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, m, 2)
	recs, _ := m.Events(0)
	for _, r := range recs {
		if r.Kind == schema.EvReroute && r.Epoch == 2 {
			if !strings.Contains(r.Detail, " rewalked_cols=1 ") {
				t.Fatalf("reroute detail %q: want rewalked_cols=1 for host 5's only cable", r.Detail)
			}
			return
		}
	}
	t.Fatal("no reroute record after the host cable died")
}

// TestRerouteRecordCountsClimbedStages: the standing Shift-HSD report
// says how many of its stages the replay counted by their climbs alone —
// all 323 over the healthy arena of the paper's 324-host cluster, none
// once a fabric link has failed, since the repaired arena stores columns
// and certifies nothing, and all again once it is revived — and the
// reroute record prints it as hsd_climbed=k/n.
func TestRerouteRecordCountsClimbedStages(t *testing.T) {
	m := newManager(t, "324", nil)
	if h := m.Current().HSD; h.Climbed != 323 || len(h.Stages) != 323 {
		t.Fatalf("healthy epoch: %d of %d stages climbed, want 323 of 323", h.Climbed, len(h.Stages))
	}
	m.Start()
	link := []topo.LinkID{fabricLink(t, m.t, 0)}
	want := map[uint64]string{2: " hsd_climbed=0/323 ", 3: " hsd_climbed=323/323 "}
	if _, err := m.InjectFaults(link, nil, 0); err != nil {
		t.Fatal(err)
	}
	if h := waitEpoch(t, m, 2).HSD; h.Climbed != 0 {
		t.Fatalf("after a fabric-link fault: %d of %d stages climbed, want 0", h.Climbed, len(h.Stages))
	}
	if _, err := m.InjectFaults(nil, link, 0); err != nil {
		t.Fatal(err)
	}
	if h := waitEpoch(t, m, 3).HSD; h.Climbed != 323 {
		t.Fatalf("after the revive: %d of %d stages climbed, want 323", h.Climbed, len(h.Stages))
	}
	recs, _ := m.Events(0)
	for _, r := range recs {
		if r.Kind == schema.EvReroute && r.Outcome == schema.OutcomeOK {
			if !strings.Contains(r.Detail, want[r.Epoch]) {
				t.Fatalf("epoch %d reroute detail %q: want%s", r.Epoch, r.Detail, want[r.Epoch])
			}
			delete(want, r.Epoch)
		}
	}
	if len(want) > 0 {
		t.Fatalf("no reroute record for epochs %v", want)
	}
}

// TestRerouteRecordNamesItsPhases: the journal's reroute record says
// where its duration went, in microseconds per phase — the jobs view laid
// over the rebuilt tables included — and the phases do not add up to more
// than the whole.
func TestRerouteRecordNamesItsPhases(t *testing.T) {
	m := newManager(t, "rlft2:4,8", nil)
	m.Start()
	if _, err := m.AllocJob(8, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InjectFaults([]topo.LinkID{fabricLink(t, m.t, 0)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, m, 3)
	recs, _ := m.Events(0)
	phase := regexp.MustCompile(`(engine_tables|shift_hsd|wire_precompute)_us=(\d+)`)
	seen := 0
	for _, r := range recs {
		if r.Kind != schema.EvReroute {
			continue
		}
		seen++
		found := phase.FindAllStringSubmatch(r.Detail, -1)
		if len(found) != 3 {
			t.Fatalf("reroute detail %q names %d of 3 phases", r.Detail, len(found))
		}
		var sum int64
		for _, f := range found {
			us, _ := strconv.ParseInt(f[2], 10, 64)
			sum += us
		}
		if sum > r.DurationUS {
			t.Fatalf("phases sum to %d us inside a %d us reroute: %q", sum, r.DurationUS, r.Detail)
		}
	}
	if seen == 0 {
		t.Fatal("no reroute record after a fault")
	}
}
