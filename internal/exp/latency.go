package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/des"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/topo"
)

// LatencyOpts scales the collective-latency crossover study.
type LatencyOpts struct {
	Cluster topo.PGFT
	Sizes   []int64
}

// DefaultLatencyOpts returns the standard sweep.
func DefaultLatencyOpts() LatencyOpts {
	return LatencyOpts{
		Cluster: topo.Cluster324,
		Sizes:   []int64{256, 2 << 10, 16 << 10, 128 << 10, 1 << 20},
	}
}

// CollectiveLatency examines the apparent trade-off behind Section VI:
// the topology-aware recursive doubling buys contention freedom with
// extra stages, so one might expect the flat XOR schedule to win on
// small messages where latency is stage-count bound. Measurement says
// otherwise on parallel-port RLFTs: the topology-aware schedule's extra
// stages are *intra-leaf* (2 links instead of up to 2h), so its total
// path-latency budget is lower too — it wins at every message size,
// on latency as well as bandwidth. Both schedules run under the
// proposed routing and ordering with synchronized stages.
func CollectiveLatency(o LatencyOpts) (*Table, error) {
	tp, err := topo.Build(o.Cluster)
	if err != nil {
		return nil, err
	}
	job, err := mpi.NewContentionFreeJob(tp, nil)
	if err != nil {
		return nil, err
	}
	n := tp.NumHosts()
	flat := cps.RecursiveDoubling(n)
	ta, err := cps.TopoAwareRecursiveDoubling(o.Cluster.M)
	if err != nil {
		return nil, err
	}
	cfg := netsim.DefaultConfig()

	t := &Table{
		Title: fmt.Sprintf("Allreduce schedule latency: flat (%d stages) vs topology-aware (%d stages), %d nodes",
			flat.NumStages(), ta.NumStages(), n),
		Header: []string{"message bytes", "flat RD us", "topo-aware us", "winner"},
	}
	var cases []mpi.Case
	for _, size := range o.Sizes {
		for _, seq := range []cps.Sequence{flat, ta} {
			cases = append(cases, mpi.Case{Job: job, Seq: seq, Bytes: size, Mode: mpi.Barrier, Config: simConfig(cfg)})
		}
	}
	sts, err := mpi.SimulateAll(cases)
	if err != nil {
		return nil, err
	}
	for i, size := range o.Sizes {
		fs, ts := sts[2*i], sts[2*i+1]
		winner := "topo-aware"
		if fs.Duration < ts.Duration {
			winner = "flat"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(size),
			fmt.Sprintf("%.2f", float64(fs.Duration)/float64(des.Microsecond)),
			fmt.Sprintf("%.2f", float64(ts.Duration)/float64(des.Microsecond)),
			winner,
		})
	}
	t.Notes = append(t.Notes,
		"the topo-aware schedule's extra stages are intra-leaf (short paths): it wins even in the latency-bound regime",
		"large messages add the contention term on top, widening the gap")
	return t, nil
}
