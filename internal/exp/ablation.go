package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// WrapAblation documents a boundary condition of the partial-tree claim:
// with random node exclusions, the rank-compacted D-Mod-K keeps the
// Shift contention free exactly when the topology's allocation granule
// G = prod(w_i)*p_h divides the job size N'. Otherwise the Shift's
// wrap-around breaks the cyclic up-port assignment at some level and the
// max HSD rises. The paper's "Cont.-X" rows (and its "multiplications of
// 324 nodes" sub-allocation remark) fall in the divisible regime.
func WrapAblation(cluster topo.PGFT, seeds int) (*Table, error) {
	tp, err := topo.Build(cluster)
	if err != nil {
		return nil, err
	}
	if _, ok := cluster.IsRLFT(); !ok {
		return nil, fmt.Errorf("exp: wrap ablation needs an RLFT")
	}
	g := cluster.AllocationGranule()
	n := tp.NumHosts()
	t := &Table{
		Title:  fmt.Sprintf("Ablation: Shift HSD vs job size modulo the allocation granule (random removals, %d nodes, G=%d)", n, g),
		Header: []string{"dropped", "job", "job mod G", "max HSD", "avg max HSD"},
	}
	for _, drop := range []int{0, g / 2, g - 1, g, g + 1, 2 * g, 2*g + 3} {
		if drop >= n {
			continue
		}
		worst, avg := 0, 0.0
		for seed := int64(0); seed < int64(seeds); seed++ {
			_, active := activeSet(n, drop, seed+1)
			lft, err := route.DModKActive(tp, active)
			if err != nil {
				return nil, err
			}
			o := order.Topology(n, active)
			rep, err := analyzeLFT(lft, o, cps.Shift(len(active)))
			if err != nil {
				return nil, err
			}
			if rep.MaxHSD() > worst {
				worst = rep.MaxHSD()
			}
			avg += rep.AvgMaxHSD()
		}
		avg /= float64(seeds)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(drop), fmt.Sprint(n - drop), fmt.Sprint((n - drop) % g),
			fmt.Sprint(worst), f2(avg),
		})
	}
	t.Notes = append(t.Notes,
		"expected: max HSD = 1 iff job mod G == 0; the wrap-around window of the Shift collides otherwise")
	return t, nil
}

// RoutingAblation compares D-Mod-K against the baselines on the Shift:
// the naive variant (no division by prod w) and the random minimal-hop
// routing both congest even under the ideal node order — the division in
// equation (1) is what decorrelates upper tree levels.
func RoutingAblation(cluster topo.PGFT) (*Table, error) {
	tp, err := topo.Build(cluster)
	if err != nil {
		return nil, err
	}
	n := tp.NumHosts()
	o := order.Topology(n, nil)
	shift := cps.Shift(n)
	t := &Table{
		Title:  fmt.Sprintf("Ablation: routing choice under topology order, Shift CPS, %d nodes", n),
		Header: []string{"routing", "max HSD", "avg max HSD"},
	}
	for _, lft := range []*route.LFT{
		route.DModK(tp),
		route.DModKNaive(tp),
		route.MinHopRandom(tp, 1),
	} {
		rep, err := analyzeLFT(lft, o, shift)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{lft.Name, fmt.Sprint(rep.MaxHSD()), f2(rep.AvgMaxHSD())})
	}
	t.Notes = append(t.Notes,
		"only d-mod-k reaches HSD 1; the ablated variants congest despite the ideal MPI node order")
	return t, nil
}

// BidirAblation contrasts the Section VI topology-aware recursive
// doubling with the flat XOR recursive doubling under the proposed
// routing and ordering: the flat pattern congests on parallel-port
// RLFTs, the tree-shaped one does not.
func BidirAblation(cluster topo.PGFT) (*Table, error) {
	tp, err := topo.Build(cluster)
	if err != nil {
		return nil, err
	}
	rt, err := route.Compile(route.DModK(tp))
	if err != nil {
		return nil, err
	}
	n := tp.NumHosts()
	o := order.Topology(n, nil)
	flat := cps.RecursiveDoubling(n)
	ta, err := cps.TopoAwareRecursiveDoubling(cluster.M)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablation: flat vs topology-aware recursive doubling, %d nodes", n),
		Header: []string{"sequence", "stages", "max HSD", "avg max HSD"},
	}
	for _, seq := range []cps.Sequence{flat, ta} {
		rep, err := hsd.Analyze(rt, o, seq)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			seq.Name(), fmt.Sprint(seq.NumStages()), fmt.Sprint(rep.MaxHSD()), f2(rep.AvgMaxHSD()),
		})
	}
	t.Notes = append(t.Notes,
		"the Section VI sequence trades a few extra stages for contention freedom")
	return t, nil
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
