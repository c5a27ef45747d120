package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/order"
	"fattree/internal/topo"
)

// shiftBy is the fixed-displacement single-stage pattern of Figure 1:
// destination = (source + d) mod N.
type shiftBy struct{ n, d int }

// ShiftBy returns the one-stage displacement-d pattern over n ranks.
func ShiftBy(n, d int) cps.Sequence { return shiftBy{n, d} }

func (s shiftBy) Name() string        { return fmt.Sprintf("shift+%d", s.d) }
func (s shiftBy) Size() int           { return s.n }
func (s shiftBy) NumStages() int      { return 1 }
func (s shiftBy) Bidirectional() bool { return false }
func (s shiftBy) Stage(int) cps.Stage {
	st := make(cps.Stage, s.n)
	for i := 0; i < s.n; i++ {
		st[i] = cps.Pair{Src: int32(i), Dst: int32((i + s.d) % s.n)}
	}
	return st
}

// Figure1 reproduces the paper's introductory example: 16 end-ports on a
// two-level parallel-port fat-tree running destination = (source+4) mod
// 16. A random MPI node order creates hot spots (the paper draws 3);
// the routing-aware order is congestion free.
func Figure1(randomSeeds int) (*Table, error) {
	tp, err := topo.Build(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	if err != nil {
		return nil, err
	}
	rt, err := engineRouter(tp)
	if err != nil {
		return nil, err
	}
	seq := ShiftBy(16, 4)
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
