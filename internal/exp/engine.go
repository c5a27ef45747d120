package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/engine"
	"fattree/internal/hsd"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// EngineName selects the registry routing engine every experiment routes
// with; cmd/ftbench -engine sets it. Empty (or "dmodk") keeps the direct
// D-Mod-K construction, which skips the registry.
var EngineName string

// engineRouter returns the analysis router for the selected engine on a
// healthy fabric. Registry engines hand back their own router (already
// compiled where the engine supports it); the default path compiles the
// D-Mod-K tables.
func engineRouter(tp *topo.Topology) (route.Router, error) {
	if EngineName == "" || EngineName == "dmodk" {
		c, err := route.Compile(route.DModK(tp))
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	tb, err := engineTables(tp)
	if err != nil {
		return nil, err
	}
	return tb.Router, nil
}

// engineLFT returns the selected engine's forwarding tables. Experiments
// that feed a simulator or per-level analyzer need the LFT realization
// itself, so source-based engines without one (s-mod-k) are refused with
// a pointed error rather than silently falling back to D-Mod-K.
func engineLFT(tp *topo.Topology) (*route.LFT, error) {
	if EngineName == "" || EngineName == "dmodk" {
		return route.DModK(tp), nil
	}
	tb, err := engineTables(tp)
	if err != nil {
		return nil, err
	}
	if tb.LFT == nil {
		return nil, fmt.Errorf("exp: this experiment needs forwarding tables; engine %q has no LFT realization", EngineName)
	}
	return tb.LFT, nil
}

// analyzeLFT runs seq under ordering o through the compiled paths of a
// forwarding-table set, stages in parallel.
func analyzeLFT(lft *route.LFT, o *order.Ordering, seq cps.Sequence) (*hsd.Report, error) {
	rt, err := route.Compile(lft)
	if err != nil {
		return nil, err
	}
	return hsd.AnalyzeParallel(rt, o, seq, 0)
}

func engineTables(tp *topo.Topology) (*engine.Tables, error) {
	e, err := engine.Build(EngineName, tp, engine.Options{})
	if err != nil {
		return nil, err
	}
	return e.Tables(nil)
}
