package engine

import (
	"fmt"

	"fattree/internal/fabric"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

func init() {
	Register(schema.EngineInfo{
		Name:        "fault-resilient",
		Description: "D-Mod-K with incremental local repair (Gliksberg '22b): re-spread only fault-touched destinations",
		LFT:         true,
		FaultAware:  true,
	}, func(t *topo.Topology, opts Options) (Engine, error) {
		base := route.DModK(t)
		baseC, err := route.Compile(base)
		if err != nil {
			return nil, err
		}
		return &faultresEngine{base: base, baseC: baseC}, nil
	})
}

// faultresEngine keeps the healthy D-Mod-K baseline (tables and compiled
// arena) and on faults repairs only what a fault actually touched: the
// destination columns whose up- or down-going entries cross a dead link
// are re-spread across the surviving ports by the fabric reroute the full
// rebuild uses, and the compiled arena is repatched in
// place of a whole-fabric recompile. Everything else — the vast majority
// of columns and path entries after a typical single-link failure — is
// carried over untouched, which is where the reroute-latency win over a
// full rebuild comes from.
type faultresEngine struct {
	base  *route.LFT
	baseC *route.Compiled
}

func (e *faultresEngine) Name() string { return "fault-resilient" }

func (e *faultresEngine) Tables(fs *fabric.FaultSet) (*Tables, error) {
	if fs == nil || fs.Failed() == 0 {
		return &Tables{Router: e.baseC, LFT: e.base, Compiled: e.baseC}, nil
	}
	t := e.base.T
	n := t.NumHosts()

	// Dirty destinations: columns whose baseline entries forward through
	// a dead link, in either direction. Dead host uplinks dirty nothing —
	// they make the host unroutable, which the reroute handles itself.
	dirtySet := make([]bool, n)
	var dirty []int
	for _, l := range fs.FailedLinks() {
		lk := &t.Links[l]
		lo, up := t.Ports[lk.Lower].Node, t.Ports[lk.Upper].Node
		if t.Node(lo).Kind == topo.Host {
			continue
		}
		for j := 0; j < n; j++ {
			if !dirtySet[j] && (e.base.OutPort(lo, j) == lk.Lower || e.base.OutPort(up, j) == lk.Upper) {
				dirtySet[j] = true
				dirty = append(dirty, j)
			}
		}
	}

	lft := e.base.Clone(fmt.Sprintf("d-mod-k-patch[%d faults]", fs.Failed()))
	un := fs.Reroute(lft, nil, dirty).UnroutableHosts
	c, err := e.baseC.Repatch(lft, dirty, un)
	if err != nil {
		return nil, err
	}
	return faultedTables(c, lft, un)
}
