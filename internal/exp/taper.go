package exp

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// TaperAblation quantifies the first RLFT restriction (Section IV.C):
// constant cross-bisectional bandwidth. On tapered (oversubscribed)
// trees — fewer up-links than down-links per leaf — even the perfect
// routing and ordering cannot avoid contention: in every Shift stage all
// hosts send, so some up-link must carry at least the taper ratio.
// D-Mod-K still achieves exactly that floor, no worse.
func TaperAblation() (*Table, error) {
	// Two-level trees with 24 hosts per leaf and decreasing up-link
	// counts: 24:24 (CBB, ratio 1), 24:12 (2:1), 24:8 (3:1), 24:6 (4:1).
	cases := []struct {
		name  string
		g     topo.PGFT
		ratio int
	}{
		{"1:1 (CBB)", topo.MustPGFT(2, []int{24, 12}, []int{1, 12}, []int{1, 2}), 1},
		{"2:1", topo.MustPGFT(2, []int{24, 12}, []int{1, 12}, []int{1, 1}), 2},
		{"3:1", topo.MustPGFT(2, []int{24, 12}, []int{1, 8}, []int{1, 1}), 3},
		{"4:1", topo.MustPGFT(2, []int{24, 12}, []int{1, 6}, []int{1, 1}), 4},
	}
	t := &Table{
		Title:  "Ablation: oversubscription (taper) vs Shift HSD under the proposed configuration",
		Header: []string{"taper", "hosts", "up-links/leaf", "max HSD", "avg max HSD", "floor"},
	}
	for _, c := range cases {
		tp, err := topo.Build(c.g)
		if err != nil {
			return nil, err
		}
		n := tp.NumHosts()
		rt, err := route.Compile(route.DModK(tp))
		if err != nil {
			return nil, err
		}
		rep, err := hsd.Analyze(rt, order.Topology(n, nil), cps.Shift(n))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprint(n),
			fmt.Sprint(c.g.UpPorts(1)),
			fmt.Sprint(rep.MaxHSD()),
			f2(rep.AvgMaxHSD()),
			fmt.Sprint(c.ratio),
		})
	}
	t.Notes = append(t.Notes,
		"the contention floor equals the taper ratio: with all hosts sending, up-links must time-share",
		"D-Mod-K meets the floor exactly — the loss is the topology's, not the routing's")
	return t, nil
}
