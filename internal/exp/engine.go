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
// with; cmd/ftbench -engine sets it. Empty means engine.Default.
var EngineName string

// engineRouter returns the selected engine's analysis router on a
// healthy fabric (compiled wherever the engine supports it).
func engineRouter(tp *topo.Topology) (route.Router, error) {
	tb, err := engine.Resolve(EngineName, tp, engine.Options{}, nil)
	if err != nil {
		return nil, err
	}
	return tb.Compiled, nil
}

// engineLFT returns the selected engine's forwarding tables. Experiments
// that feed a simulator or per-level analyzer need the LFT realization
// itself, so source-based engines without one (s-mod-k) are refused with
// a pointed error rather than silently falling back to D-Mod-K.
func engineLFT(tp *topo.Topology) (*route.LFT, error) {
	tb, err := engine.Resolve(EngineName, tp, engine.Options{}, nil)
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
	return hsd.Analyze(rt, o, seq)
}
