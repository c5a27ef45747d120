package engine

import (
	"fmt"
	"slices"

	"fattree/internal/fabric"
	"fattree/internal/route"
	"fattree/internal/topo"
)

func init() {
	Register(Info{
		Name:        "dmodk",
		Description: "paper's D-Mod-K (equation 1); reroutes with per-destination down-cone growth",
		LFT:         true,
		FaultAware:  true,
	}, func(t *topo.Topology, opts Options) (Engine, error) {
		if opts.Active == nil {
			return newRerouteEngine("dmodk", route.DModK(t), nil)
		}
		// Malformed sets (duplicates, out-of-range hosts) surface here
		// as errors. A reroute spreads by the same compacted rank.
		rank, err := route.ActiveRanks(t.NumHosts(), opts.Active)
		if err != nil {
			return nil, err
		}
		lft, err := route.DModKActive(t, opts.Active)
		if err != nil {
			return nil, err
		}
		return newRerouteEngine("dmodk", lft, rank)
	})

	// A second name for dmodk, kept while bench/ names it.
	Register(Info{
		Name:        "fault-resilient",
		Description: "dmodk under a second name: the same tables and the same fault reroute",
		LFT:         true,
		FaultAware:  true,
	}, func(t *topo.Topology, opts Options) (Engine, error) {
		return newRerouteEngine("fault-resilient", route.DModK(t), nil)
	})

	Register(Info{
		Name:        "dmodk-naive",
		Description: "textbook D-Mod-K without the parallel-copy down rule; fault-oblivious baseline",
		LFT:         true,
	}, func(t *topo.Topology, opts Options) (Engine, error) {
		return newObliviousEngine("dmodk-naive", route.DModKNaive(t))
	})

	Register(Info{
		Name:        "minhop-random",
		Description: "seeded random minimal up-port selection; fault-oblivious baseline",
		LFT:         true,
	}, func(t *topo.Topology, opts Options) (Engine, error) {
		return newObliviousEngine("minhop-random", route.MinHopRandom(t, opts.Seed))
	})

	Register(Info{
		Name:        "smodk",
		Description: "source-based S-Mod-K; spreads by source index, no forwarding-table realization",
	}, func(t *topo.Topology, opts Options) (Engine, error) {
		return newObliviousEngine("smodk", route.NewSModK(t))
	})
}

// healthyTables compiles a fully routable router into the Tables a healthy
// fabric serves.
func healthyTables(rt route.Router) (*Tables, error) {
	c, err := route.Compile(rt)
	if err != nil {
		return nil, err
	}
	lft, _ := rt.(*route.LFT)
	return &Tables{LFT: lft, Compiled: c}, nil
}

// faultedTables assembles the Tables every engine serves for a faulted
// fabric: rt leniently compiled (an already compiled arena, like a reroute
// engine's repaired one, is kept as is), so every pair rt refuses or walks
// non-minimally comes back broken, and BrokenPairs excludes the pairs
// already doomed by the unroutable hosts.
func faultedTables(rt route.Router, lft *route.LFT, unroutable []int) (*Tables, error) {
	c, err := route.CompileLenient(rt)
	if err != nil {
		return nil, err
	}
	return &Tables{
		LFT:         lft,
		Compiled:    c,
		Unroutable:  unroutable,
		BrokenPairs: brokenAmongRoutable(rt.Topology().NumHosts(), c.NumBroken(), unroutable),
	}, nil
}

// rerouteEngine serves ranked D-Mod-K tables and repairs them on faults:
// fabric.Reroute with the same rank over the columns a dead link touched,
// on a clone of the healthy tables, and the healthy arena re-walked in
// those columns. It is "dmodk" (and "fault-resilient") under the identity
// rank, and dmodk over a partial job under the active one.
type rerouteEngine struct {
	name    string // registry name
	rank    []int
	healthy *Tables
}

func newRerouteEngine(name string, lft *route.LFT, rank []int) (*rerouteEngine, error) {
	healthy, err := healthyTables(lft)
	if err != nil {
		return nil, err
	}
	return &rerouteEngine{name: name, rank: rank, healthy: healthy}, nil
}

func (e *rerouteEngine) Name() string { return e.name }

func (e *rerouteEngine) Tables(fs *fabric.FaultSet) (*Tables, error) {
	if fs == nil || fs.Failed() == 0 {
		return e.healthy, nil
	}
	base := e.healthy.LFT
	dirty := touchedColumns(base, fs)
	lft := base.Clone(fmt.Sprintf("%s-reroute[%d faults]", base.Name, fs.Failed()))
	un := fs.Reroute(lft, e.rank, dirty).UnroutableHosts
	c, err := e.healthy.Compiled.Repatch(lft, dirty)
	if err != nil {
		return nil, err
	}
	return faultedTables(c, lft, un)
}

// touchedColumns lists, ascending, the destination columns whose entry at
// either end of a dead link forwards through it, host links included:
// the only columns a reroute of these tables can change.
func touchedColumns(lft *route.LFT, fs *fabric.FaultSet) (cols []int) {
	t, dead := lft.T, fs.FailedLinks()
	for j := 0; j < t.NumHosts(); j++ {
		if slices.ContainsFunc(dead, func(l topo.LinkID) bool {
			lk := &t.Links[l]
			return lft.OutPort(t.Ports[lk.Lower].Node, j) == lk.Lower || lft.OutPort(t.Ports[lk.Upper].Node, j) == lk.Upper
		}) {
			cols = append(cols, j)
		}
	}
	return cols
}

// obliviousEngine wraps a fault-oblivious routing, forwarding tables or
// source-based: under faults it stays as programmed and every pair
// crossing a dead link is refused rather than repaired.
type obliviousEngine struct {
	name    string
	rt      route.Router
	healthy *Tables
}

func newObliviousEngine(name string, rt route.Router) (*obliviousEngine, error) {
	healthy, err := healthyTables(rt)
	if err != nil {
		return nil, err
	}
	return &obliviousEngine{name: name, rt: rt, healthy: healthy}, nil
}

func (e *obliviousEngine) Name() string { return e.name }

func (e *obliviousEngine) Tables(fs *fabric.FaultSet) (*Tables, error) {
	if fs == nil || fs.Failed() == 0 {
		return e.healthy, nil
	}
	return faultedTables(newAliveOnly(e.rt, fs), e.healthy.LFT, fs.UnroutableHosts())
}

// aliveOnly filters a router through a snapshot of the dead links: a walk
// that crosses one delivers its hops (so lenient compiles account the
// partial path) and then fails, which is exactly the contract that makes
// CompileLenient mark the pair broken. It snapshots the fault set instead
// of holding it because callers (the fabric manager) mutate their live
// FaultSet between epochs while compiled arenas stay immutable.
type aliveOnly struct {
	inner route.Router
	dead  []bool
}

func newAliveOnly(r route.Router, fs *fabric.FaultSet) *aliveOnly {
	dead := make([]bool, len(r.Topology().Links))
	for _, l := range fs.FailedLinks() {
		dead[l] = true
	}
	return &aliveOnly{inner: r, dead: dead}
}

func (a *aliveOnly) Topology() *topo.Topology { return a.inner.Topology() }

func (a *aliveOnly) Label() string { return a.inner.Label() }

func (a *aliveOnly) Walk(src, dst int, visit func(link topo.LinkID, up bool)) error {
	var hit topo.LinkID = topo.LinkID(-1)
	if err := a.inner.Walk(src, dst, func(l topo.LinkID, up bool) {
		if a.dead[l] && hit < 0 {
			hit = l
		}
		visit(l, up)
	}); err != nil {
		return err
	}
	if hit >= 0 {
		return fmt.Errorf("route: %s: path %d->%d crosses dead link %d", a.Label(), src, dst, hit)
	}
	return nil
}
