package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Figure2Opts scales the Figure 2 reproduction. The paper simulated a
// 1944-node cluster over the full Shift sequence; the packet-level cost
// of that is enormous, so ShiftStages samples a representative subset of
// stages (the per-stage behaviour is what the average is made of).
type Figure2Opts struct {
	Cluster     topo.PGFT
	Sizes       []int64 // message payloads in bytes
	ShiftStages int     // how many Shift stages to sample (0 = all)
	Seed        int64   // random-ordering seed
	Config      netsim.Config
}

// DefaultFigure2Opts returns the paper-scale parameters.
func DefaultFigure2Opts() Figure2Opts {
	return Figure2Opts{
		Cluster:     topo.Cluster1944,
		Sizes:       []int64{8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20},
		ShiftStages: 8,
		Seed:        1,
		Config:      netsim.DefaultConfig(),
	}
}

// Figure2 reproduces "Shift and Recursive Doubling Collectives Normalized
// BW vs. Message Size": random MPI node order, asynchronous stage
// progression, normalized effective bandwidth (1.0 = every host streams
// at the PCIe rate). The paper's shape: bandwidth decreases with message
// size, and Recursive-Doubling sits below Shift because its short
// sequence cannot average contention out.
func Figure2(o Figure2Opts) (*Table, error) {
	tp, err := topo.Build(o.Cluster)
	if err != nil {
		return nil, err
	}
	lft := route.DModK(tp)
	n := tp.NumHosts()
	job, err := mpi.NewJob(lft, order.Random(n, nil, o.Seed))
	if err != nil {
		return nil, err
	}

	shift, err := mpi.SampleEvenly(cps.Shift(n), o.ShiftStages)
	if err != nil {
		return nil, err
	}
	recdbl := cps.RecursiveDoubling(n)

	t := &Table{
		Title:  fmt.Sprintf("Figure 2: normalized BW vs message size, %d nodes, random order", n),
		Header: []string{"message bytes", "shift norm BW", "recursive-doubling norm BW"},
	}
	var cases []mpi.Case
	for _, size := range o.Sizes {
		for _, seq := range []cps.Sequence{shift, recdbl} {
			cases = append(cases, mpi.Case{Job: job, Seq: seq, Bytes: size, Mode: netsim.Async, Config: simConfig(o.Config)})
		}
	}
	sts, err := mpi.SimulateAll(cases)
	if err != nil {
		return nil, err
	}
	for i, size := range o.Sizes {
		sShift, sRD := sts[2*i], sts[2*i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size),
			f3(job.NormalizedBandwidth(sShift, o.Config)),
			f3(job.NormalizedBandwidth(sRD, o.Config)),
		})
	}
	t.Notes = append(t.Notes,
		"paper: ~40-60% plateau for random order, decreasing with message size; recursive doubling below shift",
		fmt.Sprintf("shift sampled to %d stages; async per-host progression", o.ShiftStages))
	return t, nil
}
