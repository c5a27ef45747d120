package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Figure1 reproduces the paper's introductory example: 16 end-ports on a
// two-level parallel-port fat-tree running destination = (source+4) mod
// 16. A random MPI node order creates hot spots (the paper draws 3);
// the routing-aware order is congestion free.
func Figure1(randomSeeds int) (*Table, error) {
	tp, err := topo.Build(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	if err != nil {
		return nil, err
	}
	rt, err := route.Compile(route.DModK(tp))
	if err != nil {
		return nil, err
	}
	// Displacement 4 is Shift's stage 3.
	seq, err := mpi.SampleStages(cps.Shift(16), []int{3})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 1: routing-aware vs random MPI node order, dst=(src+4) mod 16",
		Header: []string{"ordering", "max HSD", "hot links"},
	}
	ordered, err := hsd.Analyze(rt, order.Topology(16, nil), seq)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"routing-aware", fmt.Sprint(ordered.MaxHSD()), fmt.Sprint(ordered.Stages[0].HotLinks),
	})
	for seed := int64(0); seed < int64(randomSeeds); seed++ {
		rep, err := hsd.Analyze(rt, order.Random(16, nil, seed), seq)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("random(seed=%d)", seed),
			fmt.Sprint(rep.MaxHSD()),
			fmt.Sprint(rep.Stages[0].HotLinks),
		})
	}
	t.Notes = append(t.Notes,
		"paper's Figure 1(a) shows 3 hot links for its random order; 1(b) shows zero for the routing-aware order")
	return t, nil
}
