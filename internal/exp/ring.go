package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/topo"
)

// RingOpts scales the adversarial-Ring experiment of Section II.
type RingOpts struct {
	Cluster topo.PGFT
	Bytes   int64
	Config  netsim.Config
}

// DefaultRingOpts returns the paper-scale parameters (the 1944-node
// cluster, where the worst oversubscription is the switch arity 18 and
// the measured bandwidth was 231.5 MB/s ≈ 7.1% of nominal).
func DefaultRingOpts() RingOpts {
	return RingOpts{Cluster: topo.Cluster1944, Bytes: 256 << 10, Config: netsim.DefaultConfig()}
}

// RingAdversarial reproduces the Section II adversarial node-order
// experiment: a Ring permutation under (a) the topology-aware order and
// (b) the adversarial order that drives all K flows of each leaf through
// a single up-going port. It reports analytic HSD and simulated
// normalized bandwidth for both, plus the degradation factor.
func RingAdversarial(o RingOpts) (*Table, error) {
	tp, err := topo.Build(o.Cluster)
	if err != nil {
		return nil, err
	}
	lft, err := engineLFT(tp)
	if err != nil {
		return nil, err
	}
	rt, err := engineRouter(tp)
	if err != nil {
		return nil, err
	}
	n := tp.NumHosts()
	k, _ := o.Cluster.IsRLFT()
	ring := cps.Ring(n)

	adv, err := order.Adversarial(tp)
	if err != nil {
		return nil, err
	}
	labels := []string{"topology-aware", "adversarial"}
	var hsds []float64
	var cases []mpi.Case
	for _, ord := range []*order.Ordering{order.Topology(n, nil), adv} {
		rep, err := hsd.Analyze(rt, ord, ring)
		if err != nil {
			return nil, err
		}
		hsds = append(hsds, rep.AvgMaxHSD())
		job, err := mpi.NewJob(lft, ord)
		if err != nil {
			return nil, err
		}
		cases = append(cases, mpi.Case{Job: job, Seq: ring, Bytes: o.Bytes, Mode: mpi.Async, Config: simConfig(o.Config)})
	}
	sts, err := mpi.SimulateAll(cases)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Section II: Ring permutation, %d nodes (K=%d)", n, k),
		Header: []string{"ordering", "avg max HSD", "normalized BW"},
	}
	bws := make([]float64, len(cases))
	for i, c := range cases {
		bws[i] = c.Job.NormalizedBandwidth(sts[i], o.Config)
		t.Rows = append(t.Rows, []string{labels[i], f2(hsds[i]), f3(bws[i])})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("degradation factor: %.1fx (paper: ~14x, 7.1%% of nominal; worst oversubscription = K = %d)", bws[0]/bws[1], k))
	return t, nil
}
