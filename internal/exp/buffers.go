package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/topo"
)

// BufferOpts scales the buffer ablation.
type BufferOpts struct {
	Cluster topo.PGFT
	Bytes   int64
	Buffers []int
	Stages  int
	Seed    int64
}

// DefaultBufferOpts returns the standard sweep.
func DefaultBufferOpts() BufferOpts {
	return BufferOpts{
		Cluster: topo.Cluster324,
		Bytes:   256 << 10,
		Buffers: []int{1, 2, 4, 8, 16, 64},
		Stages:  4,
		Seed:    1,
	}
}

// BufferAblation probes the mechanism behind Figure 2's message-size
// dependence: head-of-line blocking in finite input buffers. Under a
// random node order, deeper buffers absorb short contention episodes and
// recover some bandwidth; under the contention-free configuration the
// buffer depth is irrelevant — there is never a second flow to absorb.
func BufferAblation(o BufferOpts) (*Table, error) {
	tp, err := topo.Build(o.Cluster)
	if err != nil {
		return nil, err
	}
	lft, err := engineLFT(tp)
	if err != nil {
		return nil, err
	}
	n := tp.NumHosts()

	shift, err := mpi.SampleEvenly(cps.Shift(n), o.Stages)
	if err != nil {
		return nil, err
	}

	goodJob, err := mpi.NewJob(lft, order.Topology(n, nil))
	if err != nil {
		return nil, err
	}
	badJob, err := mpi.NewJob(lft, order.Random(n, nil, o.Seed))
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Ablation: input-buffer depth vs normalized BW, Shift, %d nodes, %d KiB", n, o.Bytes>>10),
		Header: []string{"buffer packets", "ordered BW", "random BW", "random max link util"},
	}
	cfgs := make([]netsim.Config, len(o.Buffers))
	var cases []mpi.Case
	for i, b := range o.Buffers {
		cfgs[i] = netsim.DefaultConfig()
		cfgs[i].BufferPackets = b
		for _, job := range []*mpi.Job{goodJob, badJob} {
			cases = append(cases, mpi.Case{Job: job, Seq: shift, Bytes: o.Bytes, Mode: mpi.Async, Config: simConfig(cfgs[i])})
		}
	}
	sts, err := mpi.SimulateAll(cases)
	if err != nil {
		return nil, err
	}
	for i, b := range o.Buffers {
		cfg, g, r := cfgs[i], sts[2*i], sts[2*i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(b),
			f3(goodJob.NormalizedBandwidth(g, cfg)),
			f3(badJob.NormalizedBandwidth(r, cfg)),
			f2(r.MaxLinkUtilization()),
		})
	}
	t.Notes = append(t.Notes,
		"ordered column is ~1.0 from 2 slots up (a single credit stalls on the credit round-trip even without contention)",
		"random column improves with depth until the hot links themselves saturate")
	return t, nil
}
