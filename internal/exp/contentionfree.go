package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/des"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/topo"
)

// CFOpts scales the Section VII verification: the proposed configuration
// must deliver full bandwidth and cut-through latency.
type CFOpts struct {
	Cluster     topo.PGFT
	Bytes       int64
	ShiftStages int
	Config      netsim.Config
}

// DefaultCFOpts returns paper-scale parameters.
func DefaultCFOpts() CFOpts {
	return CFOpts{
		Cluster:     topo.Cluster1944,
		Bytes:       256 << 10,
		ShiftStages: 6,
		Config:      netsim.DefaultConfig(),
	}
}

// ContentionFree reproduces the Section VII validation: with D-Mod-K
// routing and the matching MPI node order, the Shift and the topology
// aware Recursive-Doubling sequences run at full bandwidth, and a lone
// small message experiences pure cut-through latency.
func ContentionFree(o CFOpts) (*Table, error) {
	tp, err := topo.Build(o.Cluster)
	if err != nil {
		return nil, err
	}
	job, err := mpi.NewContentionFreeJob(tp, nil)
	if err != nil {
		return nil, err
	}
	n := tp.NumHosts()

	shift, err := mpi.SampleEvenly(cps.Shift(n), o.ShiftStages)
	if err != nil {
		return nil, err
	}
	ta, err := cps.TopoAwareRecursiveDoubling(o.Cluster.M)
	if err != nil {
		return nil, err
	}

	// Uncontended reference: one message of the experiment size across
	// the fabric diameter. A contention-free stage should take no longer
	// than this (plus scheduling noise), no matter how many hosts move.
	nw, err := netsim.New(job.Route, simConfig(o.Config))
	if err != nil {
		return nil, err
	}
	ref, err := nw.Run([][]netsim.Message{{{Src: 0, Dst: n - 1, Bytes: o.Bytes}}}, netsim.Async)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Section VII: contention-free configuration, %d nodes", n),
		Header: []string{"sequence", "avg max HSD", "normalized BW", "worst stage slowdown", "mean msg latency"},
	}
	seqs := []cps.Sequence{shift, ta}
	var cases []mpi.Case
	for _, seq := range seqs {
		for _, mode := range []netsim.Mode{netsim.Async, netsim.Barrier} {
			cases = append(cases, mpi.Case{Job: job, Seq: seq, Bytes: o.Bytes, Mode: mode, Config: simConfig(o.Config)})
		}
	}
	sts, err := mpi.SimulateAll(cases)
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		rep, err := job.Analyze(seq)
		if err != nil {
			return nil, err
		}
		st, syncSt := sts[2*i], sts[2*i+1]
		worst := des.Time(0)
		for _, d := range syncSt.StageDurations {
			if d > worst {
				worst = d
			}
		}
		t.Rows = append(t.Rows, []string{
			seq.Name(),
			f2(rep.AvgMaxHSD()),
			f3(job.NormalizedBandwidth(st, o.Config)),
			f2(float64(worst) / float64(ref.Duration)),
			fmt.Sprintf("%.2fus", float64(st.MeanLatency())/float64(des.Microsecond)),
		})
	}

	// Cut-through latency probe: one MTU-sized message across the full
	// diameter of the otherwise idle fabric.
	probe, err := nw.Run([][]netsim.Message{{{Src: 0, Dst: n - 1, Bytes: int64(o.Config.MTU)}}}, netsim.Async)
	if err != nil {
		return nil, err
	}
	links := 2 * o.Cluster.H
	sf := float64(links) * float64(o.Config.MTU) / o.Config.LinkBandwidth * 1e6 // store-and-forward, us
	t.Rows = append(t.Rows, []string{
		"single-MTU probe",
		"-",
		"-",
		"-",
		fmt.Sprintf("%.2fus", float64(probe.MeanLatency())/float64(des.Microsecond)),
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("store-and-forward would serialize %d hops: >= %.2fus; cut-through pays one serialization", links, sf),
		"stage slowdown is the barrier-mode stage makespan over the uncontended single-flow reference (1.0 = contention free)",
		"normalized BW dilutes for sequences with pre/post/fixup stages where only a fraction of hosts transmit")
	return t, nil
}
