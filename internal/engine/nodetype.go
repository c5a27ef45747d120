package engine

import (
	"fmt"

	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

func init() {
	Register(schema.EngineInfo{
		Name:        "nodetype-lb",
		Description: "D-Mod-K spread per destination node type (Gliksberg '22); single type is plain D-Mod-K",
		LFT:         true,
		FaultAware:  true,
	}, func(t *topo.Topology, opts Options) (Engine, error) {
		if opts.NodeTypes != nil && len(opts.NodeTypes) != t.NumHosts() {
			return nil, fmt.Errorf("engine: nodetype-lb: %d node types for %d hosts", len(opts.NodeTypes), t.NumHosts())
		}
		rank, types := typeRanks(t.NumHosts(), opts.NodeTypes)
		name := "nodetype-lb"
		if rank != nil {
			name = fmt.Sprintf("nodetype-lb[%d types]", types)
		}
		lft, err := route.DModKRanked(t, rank, name)
		if err != nil {
			return nil, err
		}
		return newRerouteEngine("nodetype-lb", lft, rank)
	})
}

// typeRanks maps each host to its rank within its node type — the count
// of lower-indexed hosts sharing the type — so D-Mod-K's cyclic up-port
// spreading restarts gap-free inside every type instead of letting an
// interleaved placement (compute, storage, admin nodes striped across
// leaves) alias whole types onto the same spines. It also returns the
// number of distinct types. A nil assignment means one type, for which
// the ranking is the identity (returned as nil).
func typeRanks(n int, types []int) (rank []int, distinct int) {
	if types == nil {
		return nil, 1
	}
	rank = make([]int, n)
	count := map[int]int{}
	for j := 0; j < n; j++ {
		rank[j] = count[types[j]]
		count[types[j]]++
	}
	return rank, len(count)
}
