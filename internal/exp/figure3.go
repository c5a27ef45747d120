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

// Figure3Opts scales the Figure 3 study.
type Figure3Opts struct {
	Clusters []topo.PGFT
	Seeds    int // random orderings per point (paper: 25)
	// ShiftStride samples every k-th stage of the Shift and Ring-style
	// long sequences (1 = all stages, the paper's setting).
	ShiftStride int
}

// DefaultFigure3Opts returns the paper-scale parameters.
func DefaultFigure3Opts() Figure3Opts {
	return Figure3Opts{
		Clusters:    []topo.PGFT{topo.Cluster128, topo.Cluster324, topo.Cluster1728, topo.Cluster1944},
		Seeds:       25,
		ShiftStride: 1,
	}
}

// figure3CPS builds the six collectives of the figure for a job size
// ("Butterfly" is recursive doubling).
func figure3CPS(n, stride int) ([]cps.Sequence, error) {
	shift := cps.Sequence(cps.Shift(n))
	if stride > 1 {
		var idx []int
		for s := 0; s < shift.NumStages(); s += stride {
			idx = append(idx, s)
		}
		var err error
		shift, err = mpi.SampleStages(shift, idx)
		if err != nil {
			return nil, err
		}
	}
	return []cps.Sequence{
		cps.Binomial(n),
		cps.RecursiveDoubling(n), // the figure's "Butterfly"
		cps.Dissemination(n),
		cps.Ring(n),
		shift,
		cps.Tournament(n),
	}, nil
}

// Figure3 reproduces "average of the maximal hot-spot degree over all
// stages, averaged over 25 random MPI node orders" for the four cluster
// sizes. The paper's shape: Ring, Shift and Butterfly grow steeply with
// cluster size; Binomial, Dissemination and Tournament stay low.
func Figure3(o Figure3Opts) (*Table, error) {
	t := &Table{
		Title:  "Figure 3: avg max HSD under random MPI node order (mean [min..max] over seeds)",
		Header: []string{"nodes", "binomial", "butterfly", "dissemination", "ring", "shift", "tournament"},
	}
	for _, g := range o.Clusters {
		tp, err := topo.Build(g)
		if err != nil {
			return nil, err
		}
		rt, err := route.Compile(route.DModK(tp))
		if err != nil {
			return nil, err
		}
		n := tp.NumHosts()
		var orders []*order.Ordering
		for seed := 0; seed < o.Seeds; seed++ {
			orders = append(orders, order.Random(n, nil, int64(seed)))
		}
		seqs, err := figure3CPS(n, o.ShiftStride)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(n)}
		for _, seq := range seqs {
			sw, err := hsd.SweepOrderingsParallel(rt, orders, seq, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%s [%s..%s]", f2(sw.Mean), f2(sw.Min), f2(sw.Max)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: Ring/Shift/Butterfly exhibit exponential growth with cluster size; the others stay flat")
	return t, nil
}
