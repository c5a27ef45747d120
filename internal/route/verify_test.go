package route_test

import (
	"math/rand"
	"reflect"
	"testing"

	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// verifyPaths runs the path checks ftroute -verify runs on r: every pair
// delivered over an up*/down* path of the minimal length 2*LCALevel.
func verifyPaths(t *testing.T, r route.Router) {
	t.Helper()
	checks, err := invariant.Select("route.total,route.updown,route.minimal")
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range invariant.Run(invariant.NewInstance(r.Topology(), r, nil), checks).Checks {
		if res.Status != invariant.Pass {
			t.Errorf("%v %s: %s %s: %s %+v", r.Topology().Spec, r.Label(), res.Name, res.Status, res.Error, res.Counterexample)
		}
	}
}

// downPortConflicts is the Theorem 2 tally over f's all-to-all traffic.
func downPortConflicts(t *testing.T, f *route.LFT) int {
	t.Helper()
	n, first := invariant.DownPortConflicts(f.T, f)
	if first.Status == invariant.Fail && first.Counterexample.Link == nil {
		t.Fatalf("%v %s: %s", f.T.Spec, f.Name, first.Error)
	}
	return n
}

// entries reads every table entry of f, node by node.
func entries(f *route.LFT) [][]topo.PortID {
	out := make([][]topo.PortID, len(f.T.Nodes))
	for id := range out {
		for j := 0; j < f.T.NumHosts(); j++ {
			out[id] = append(out[id], f.OutPort(topo.NodeID(id), j))
		}
	}
	return out
}

func TestDModKDelivers(t *testing.T) {
	for _, g := range []topo.PGFT{
		topo.Cluster128,
		topo.Cluster324,
		topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}),
		topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2}),
	} {
		verifyPaths(t, route.DModK(topo.MustBuild(g)))
	}
}

// TestDModKAtThePortBound: on fabrics with a node of topo.MaxPorts ports
// its last port is number 254, one below the empty entry, and the tables
// still deliver every pair through it.
func TestDModKAtThePortBound(t *testing.T) {
	for _, g := range []topo.PGFT{
		topo.MustPGFT(1, []int{255}, []int{1}, []int{1}),            // a 255-port top switch
		topo.MustPGFT(2, []int{127, 2}, []int{1, 128}, []int{1, 1}), // 255-port leaves, 128 up
	} {
		tp := topo.MustBuild(g)
		f := route.DModK(tp)
		verifyPaths(t, f)
		sw := tp.Node(tp.ByLevel[1][0])
		last := sw.FirstPort() + topo.PortID(topo.MaxPorts-1)
		if got := f.OutPort(sw.ID, tp.HostsUnder(sw)[len(sw.Down)-1]); got != last {
			t.Fatalf("%v: %v forwards its last host through port %d, want %d", g, sw, got, last)
		}
	}
}

// TestDModKDelivers1944 checks every pair of the paper's largest cluster
// through its compiled arena, which the path checks read in place
// (compiled ≡ walk is TestFactoredMatchesWalk's business).
func TestDModKDelivers1944(t *testing.T) {
	c, err := route.Compile(route.DModK(topo.MustBuild(topo.Cluster1944)))
	if err != nil {
		t.Fatal(err)
	}
	verifyPaths(t, c)
}

func TestDModKDownPortUniqueness(t *testing.T) {
	// Theorem 2: over all-to-all traffic no down port carries more than
	// one destination on a complete RLFT.
	for _, g := range []topo.PGFT{
		topo.Cluster128,
		topo.Cluster324,
		topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2}),
	} {
		if c := downPortConflicts(t, route.DModK(topo.MustBuild(g))); c != 0 {
			t.Errorf("%v: %d down ports carry multiple destinations, want 0", g, c)
		}
	}
}

func TestDModKActiveDelivers(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster324)
	r := rand.New(rand.NewSource(42))
	active := r.Perm(tp.NumHosts())[:300]
	f, err := route.DModKActive(tp, active)
	if err != nil {
		t.Fatal(err)
	}
	verifyPaths(t, f)
}

func TestMinHopRandomDelivers(t *testing.T) {
	tp := topo.MustBuild(topo.Cluster128)
	f := route.MinHopRandom(tp, 1)
	verifyPaths(t, f)
	// Deterministic per seed.
	sameTables(t, "minhop-random seed 1 rebuilt", route.MinHopRandom(tp, 1), entries(f))
	if reflect.DeepEqual(entries(f), entries(route.MinHopRandom(tp, 2))) {
		t.Error("different seeds produced identical tables")
	}
}

func TestDModKNaiveDeliversButConflicts(t *testing.T) {
	f := route.DModKNaive(topo.MustBuild(topo.MustPGFT(3, []int{4, 4, 4}, []int{1, 4, 2}, []int{1, 1, 2})))
	verifyPaths(t, f)
	if downPortConflicts(t, f) == 0 {
		t.Error("naive variant shows no down-port conflicts; expected it to be worse than d-mod-k")
	}
}
