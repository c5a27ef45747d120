package sched_test

import (
	"fmt"

	"fattree/internal/sched"
	"fattree/internal/topo"
)

// Place two jobs on the 1944-node cluster in granule-aligned blocks.
func ExampleAllocator() {
	cluster := topo.MustBuild(topo.Cluster1944)
	a, err := sched.New(cluster)
	if err != nil {
		panic(err)
	}
	fmt.Println("granule:", a.Granule())
	j1, _ := a.Alloc(648)
	j2, _ := a.Alloc(324)
	fmt.Println("job1 contention-free:", j1.ContentionFree)
	fmt.Println("job2 contention-free:", j2.ContentionFree)
	used := cluster.NumHosts() - a.FreeHosts()
	fmt.Printf("utilization: %.1f%%\n", 100*float64(used)/float64(cluster.NumHosts()))
	// Output:
	// granule: 324
	// job1 contention-free: true
	// job2 contention-free: true
	// utilization: 50.0%
}
