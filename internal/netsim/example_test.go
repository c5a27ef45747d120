package netsim_test

import (
	"fmt"

	"fattree/internal/netsim"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Simulate a contention-free shift permutation on the Figure 1 tree.
func ExampleNetwork_Run() {
	t := topo.MustBuild(topo.MustPGFT(2, []int{4, 4}, []int{1, 2}, []int{1, 2}))
	nw, err := netsim.New(route.DModK(t), netsim.DefaultConfig())
	if err != nil {
		panic(err)
	}
	var msgs []netsim.Message
	for i := 0; i < 16; i++ {
		msgs = append(msgs, netsim.Message{Src: i, Dst: (i + 4) % 16, Bytes: 1 << 20})
	}
	st, err := nw.Run([][]netsim.Message{msgs}, netsim.Async)
	if err != nil {
		panic(err)
	}
	cfg := netsim.DefaultConfig()
	norm := st.EffectiveBandwidth() / (cfg.HostBandwidth * 16)
	fmt.Printf("messages delivered: %d\n", st.MessagesDelivered)
	fmt.Printf("normalized bandwidth >= 0.97: %v\n", norm >= 0.97)
	fmt.Printf("out-of-order packets: %d\n", st.OutOfOrderPackets)
	// Output:
	// messages delivered: 16
	// normalized bandwidth >= 0.97: true
	// out-of-order packets: 0
}
