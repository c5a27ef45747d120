package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// AdaptiveOpts scales the adaptive-vs-proactive comparison.
type AdaptiveOpts struct {
	Cluster topo.PGFT
	Bytes   int64
	Seed    int64
}

// DefaultAdaptiveOpts returns the standard setting.
func DefaultAdaptiveOpts() AdaptiveOpts {
	return AdaptiveOpts{Cluster: topo.Cluster324, Bytes: 128 << 10, Seed: 1}
}

// AdaptiveComparison reproduces the introduction's argument against
// adaptive routing: on a randomly-ordered Ring stage, per-packet random
// path selection recovers much of the bandwidth a bad deterministic
// assignment loses — but it delivers packets out of order, which
// Reliable Connected transports cannot accept. The paper's proactive
// combination (D-Mod-K + matching order) gets the bandwidth *and* keeps
// packets in order.
func AdaptiveComparison(o AdaptiveOpts) (*Table, error) {
	tp, err := topo.Build(o.Cluster)
	if err != nil {
		return nil, err
	}
	n := tp.NumHosts()
	ring := cps.Ring(n)
	cfg := netsim.DefaultConfig()

	// netsim asks a *route.Adaptive for a path per packet, any other
	// router once per message.
	runOne := func(rt route.Router, ord *order.Ordering) (float64, int64, error) {
		nw, err := netsim.New(rt, simConfig(cfg))
		if err != nil {
			return 0, 0, err
		}
		var msgs []netsim.Message
		for _, p := range ring.Stage(0) {
			msgs = append(msgs, netsim.Message{
				Src: ord.HostOf[p.Src], Dst: ord.HostOf[p.Dst], Bytes: o.Bytes,
			})
		}
		st, err := nw.Run([][]netsim.Message{msgs}, netsim.Async)
		if err != nil {
			return 0, 0, err
		}
		norm := st.EffectiveBandwidth() / (cfg.HostBandwidth * float64(n))
		return norm, st.OutOfOrderPackets, nil
	}

	lft := route.DModK(tp)
	random := order.Random(n, nil, o.Seed)
	good := order.Topology(n, nil)

	t := &Table{
		Title:  fmt.Sprintf("Adaptive vs proactive routing: Ring stage, %d nodes, %d KiB", n, o.Bytes>>10),
		Header: []string{"configuration", "normalized BW", "out-of-order packets"},
	}
	type cfgRow struct {
		name string
		rt   route.Router
		ord  *order.Ordering
	}
	for _, row := range []cfgRow{
		{"d-mod-k + random order (deterministic)", lft, random},
		{"adaptive-random + random order (per packet)", route.NewAdaptive(tp, o.Seed), random},
		{"d-mod-k + topology order (the paper)", lft, good},
	} {
		bw, ooo, err := runOne(row.rt, row.ord)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{row.name, f3(bw), fmt.Sprint(ooo)})
	}
	t.Notes = append(t.Notes,
		"adaptive routing trades ordering for bandwidth; the proactive combination needs no trade",
		"InfiniBand Reliable Connected rejects out-of-order packets, so the middle row is not deployable on it")
	return t, nil
}
