package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/des"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// SemanticsOpts scales the progression-semantics study.
type SemanticsOpts struct {
	Cluster topo.PGFT
	Bytes   int64
	Seed    int64
}

// DefaultSemanticsOpts returns the standard setting.
func DefaultSemanticsOpts() SemanticsOpts {
	return SemanticsOpts{Cluster: topo.Cluster324, Bytes: 64 << 10, Seed: 1}
}

// SemanticsComparison measures how the three stage-progression models
// compare: async (the paper's Section II model — hosts free-run),
// dependent (real collective semantics — receive-gated), and barrier
// (globally synchronized). Async lower-bounds dependent by construction.
// Barrier is *not* an upper bound for dependent: receive-gating lets
// hosts spill into the next stage at different times, and the resulting
// cross-stage overlap can collide flows that a global barrier would
// keep apart — per-stage HSD = 1 does not compose across overlapping
// stages. The async model the paper uses therefore underestimates real
// collective completion time, and the barrier model can too.
func SemanticsComparison(o SemanticsOpts) (*Table, error) {
	tp, err := topo.Build(o.Cluster)
	if err != nil {
		return nil, err
	}
	lft := route.DModK(tp)
	n := tp.NumHosts()
	cfg := netsim.DefaultConfig()

	seq, err := cps.TopoAwareRecursiveDoubling(o.Cluster.M)
	if err != nil {
		return nil, err
	}
	flat := cps.RecursiveDoubling(n)

	t := &Table{
		Title:  fmt.Sprintf("Progression semantics: allreduce makespans (ms), %d nodes, %d KiB", n, o.Bytes>>10),
		Header: []string{"configuration", "async", "dependent", "barrier"},
	}
	type cfgRow struct {
		name string
		ord  *order.Ordering
		seq  cps.Sequence
	}
	rows := []cfgRow{
		{"topo-aware RD + topology order", order.Topology(n, nil), seq},
		{"flat RD + topology order", order.Topology(n, nil), flat},
		{"flat RD + random order", order.Random(n, nil, o.Seed), flat},
	}
	modes := []netsim.Mode{netsim.Async, netsim.Dependent, netsim.Barrier}
	var cases []mpi.Case
	for _, row := range rows {
		job, err := mpi.NewJob(lft, row.ord)
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			cases = append(cases, mpi.Case{Job: job, Seq: row.seq, Bytes: o.Bytes, Mode: mode, Config: simConfig(cfg)})
		}
	}
	sts, err := mpi.SimulateAll(cases)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		cells := []string{row.name}
		for _, st := range sts[i*len(modes) : (i+1)*len(modes)] {
			cells = append(cells, fmt.Sprintf("%.3f", float64(st.Duration)/float64(des.Millisecond)))
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Notes = append(t.Notes,
		"async <= dependent by construction; barrier is NOT an upper bound (cross-stage overlap collides flows)",
		"the dependent column is the realistic collective completion time; the others bracket mechanisms, not it")
	return t, nil
}
