package route_test

import (
	"fmt"
	"math/rand"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Partial jobs: remove random end-ports from the 324-node cluster and
// route the survivors with rank-compacted D-Mod-K. The Shift stays
// contention free while the switch arity K=18 divides the job size;
// rows with job%K != 0 show the wrap-around hot spot (max HSD 2) — the
// boundary of the paper's partial-tree claim, and why a scheduler
// should allocate in multiples of K. The topology-aware Recursive
// Doubling stays at HSD 1 by adding fixup stages to the 12 of the full
// tree.
func ExampleDModKActive() {
	cluster := topo.MustBuild(topo.Cluster324)
	n := cluster.NumHosts()
	k, _ := topo.Cluster324.IsRLFT()
	fmt.Println("drop  job  job%K  shift maxHSD  topo-RD maxHSD  topo-RD stages")
	r := rand.New(rand.NewSource(7))
	for _, drop := range []int{18, 36, 90, 10, 25} {
		active := r.Perm(n)[drop:]
		lft, err := route.DModKActive(cluster, active)
		if err != nil {
			panic(err)
		}
		o := order.Topology(n, active)
		shift, err := hsd.Analyze(lft, o, cps.Shift(len(active)))
		if err != nil {
			panic(err)
		}
		ta, err := cps.TopoAwareRecursiveDoublingPartial(topo.Cluster324.M, active)
		if err != nil {
			panic(err)
		}
		taRep, err := hsd.Analyze(lft, o, ta)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%4d  %3d  %5d  %12d  %14d  %14d\n",
			drop, len(active), len(active)%k, shift.MaxHSD(), taRep.MaxHSD(), ta.NumStages())
	}
	// Output:
	// drop  job  job%K  shift maxHSD  topo-RD maxHSD  topo-RD stages
	//   18  306      0             1               1              14
	//   36  288      0             1               1              14
	//   90  234      0             1               1              13
	//   10  314      8             2               1              13
	//   25  299     11             2               1              14
}
