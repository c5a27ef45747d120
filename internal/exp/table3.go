package exp

import (
	"fmt"
	"math/rand"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Table3Case is one row of the verification table: a topology and how
// many randomly selected nodes are excluded from the job ("Cont.-X").
// Removals are kept multiples of the topology's allocation granule
// (prod(w_i)*p_h — e.g. K for two-level trees, 324 for the 1944-node
// cluster) so that the Shift wrap-around stays cyclic at every level —
// the regime in which the paper reports HSD = 1 for partial trees (see
// the wrap-around ablation for what happens otherwise).
type Table3Case struct {
	Name    string
	Cluster topo.PGFT
	Drop    int
	Seed    int64
}

// Table3Opts scales the Table 3 run.
type Table3Opts struct {
	Cases       []Table3Case
	RandomSeeds int // random orderings for the comparison column
	ShiftStride int // stage sampling for the Shift (1 = all)
}

// DefaultTable3Opts returns the paper-scale case list: 2- and 3-level
// RLFTs, fully and partially populated.
func DefaultTable3Opts() Table3Opts {
	return Table3Opts{
		Cases: []Table3Case{
			{"RLFT2-128 full", topo.Cluster128, 0, 1},
			{"RLFT2-128 Cont.-8", topo.Cluster128, 8, 1},
			{"RLFT2-128 Cont.-24", topo.Cluster128, 24, 2},
			{"RLFT2-324 full", topo.Cluster324, 0, 1},
			{"RLFT2-324 Cont.-18", topo.Cluster324, 18, 1},
			{"RLFT2-324 Cont.-54", topo.Cluster324, 54, 2},
			{"RLFT3-1728 full", topo.Cluster1728, 0, 1},
			{"RLFT3-1728 Cont.-144", topo.Cluster1728, 144, 1},
			{"RLFT3-1944 full", topo.Cluster1944, 0, 1},
			{"RLFT3-1944 Cont.-324", topo.Cluster1944, 324, 1},
		},
		RandomSeeds: 5,
		ShiftStride: 1,
	}
}

// Table3 reproduces the paper's verification table: for every case, the
// proposed configuration (rank-compacted D-Mod-K routing + topology
// ordering) yields average max HSD of exactly 1 for the Shift CPS (and
// hence all unidirectional CPS) and for the Section VI topology-aware
// recursive doubling; the "random ranking" column shows the average max
// HSD when ranks are assigned randomly, with improvement factors up to
// ~5.2 in the paper.
func Table3(o Table3Opts) (*Table, error) {
	t := &Table{
		Title: "Table 3: proposed routing + MPI node order vs random ranking (avg max HSD)",
		Header: []string{
			"case", "nodes", "job", "shift HSD", "topo-RD HSD", "random shift HSD", "improvement",
		},
	}
	for _, c := range o.Cases {
		tp, err := topo.Build(c.Cluster)
		if err != nil {
			return nil, err
		}
		n := tp.NumHosts()
		active, activeList := activeSet(n, c.Drop, c.Seed)
		lft, err := route.DModKActive(tp, activeList)
		if err != nil {
			return nil, err
		}
		rt, err := route.Compile(lft)
		if err != nil {
			return nil, err
		}
		ordered := order.Topology(n, activeList)

		shift := cps.Sequence(cps.Shift(len(activeList)))
		if o.ShiftStride > 1 {
			var idx []int
			for s := 0; s < shift.NumStages(); s += o.ShiftStride {
				idx = append(idx, s)
			}
			shift, err = mpi.SampleStages(shift, idx)
			if err != nil {
				return nil, err
			}
		}
		repShift, err := hsd.Analyze(rt, ordered, shift)
		if err != nil {
			return nil, err
		}

		taSeq, err := cps.TopoAwareRecursiveDoublingPartial(c.Cluster.M, activeList)
		if err != nil {
			return nil, err
		}
		repTA, err := hsd.Analyze(rt, ordered, taSeq)
		if err != nil {
			return nil, err
		}

		var orders []*order.Ordering
		for seed := 0; seed < o.RandomSeeds; seed++ {
			orders = append(orders, order.Random(n, activeList, int64(seed)))
		}
		sw, err := hsd.SweepOrderingsParallel(rt, orders, shift, 0)
		if err != nil {
			return nil, err
		}
		improvement := sw.Mean / repShift.AvgMaxHSD()

		t.Rows = append(t.Rows, []string{
			c.Name,
			fmt.Sprint(n),
			fmt.Sprint(len(activeList)),
			f2(repShift.AvgMaxHSD()),
			f2(repTA.AvgMaxHSD()),
			f2(sw.Mean),
			f2(improvement),
		})
		_ = active
	}
	t.Notes = append(t.Notes,
		"paper: all proposed-configuration rows report HSD = 1.00; random-ranking column up to 5.2x worse",
		"partial jobs remove random nodes in multiples of the allocation granule prod(w)*p_h (see the wrap-around ablation)")
	return t, nil
}

// activeSet removes drop random hosts (deterministic per seed) and
// returns both the membership mask and the sorted active list.
func activeSet(n, drop int, seed int64) ([]bool, []int) {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	if drop > 0 {
		r := rand.New(rand.NewSource(seed))
		perm := r.Perm(n)
		for _, h := range perm[:drop] {
			mask[h] = false
		}
	}
	var list []int
	for h, on := range mask {
		if on {
			list = append(list, h)
		}
	}
	return mask, list
}
