package mpi_test

import (
	"fmt"
	"os"
	"text/tabwriter"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// The quickstart: build a real-life fat-tree, program D-Mod-K routing,
// use the topology-aware MPI node order, and confirm that a global
// all-to-all (the Shift CPS) is contention free — then see what a
// random order would have cost.
func ExampleNewContentionFreeJob() {
	// A 324-node cluster of 36-port switches: 18 leaves x 18 hosts,
	// 9 spines reached over 2 parallel links per leaf.
	spec, err := topo.RLFT2(18, 18)
	if err != nil {
		panic(err)
	}
	cluster := topo.MustBuild(spec)
	fmt.Printf("cluster: %v (%d hosts, %d switches, %d links)\n",
		spec, cluster.NumHosts(), spec.TotalSwitches(), len(cluster.Links))

	// The paper's recommended configuration: D-Mod-K routing plus the
	// matching rank order.
	job, err := mpi.NewContentionFreeJob(cluster, nil)
	if err != nil {
		panic(err)
	}
	// All-to-all decomposes into the Shift permutation sequence.
	alltoall := cps.Shift(job.Size())
	rep, err := job.Analyze(alltoall)
	if err != nil {
		panic(err)
	}
	fmt.Printf("shift under topology order: max HSD = %d (contention-free: %v)\n",
		rep.MaxHSD(), rep.ContentionFree())

	// A random order on the very same fabric and routing.
	bad, err := mpi.NewJob(job.Route, order.Random(cluster.NumHosts(), nil, 42))
	if err != nil {
		panic(err)
	}
	badRep, err := bad.Analyze(alltoall)
	if err != nil {
		panic(err)
	}
	fmt.Printf("shift under random order:   max HSD = %d, avg %.2f\n",
		badRep.MaxHSD(), badRep.AvgMaxHSD())

	// Packet-level confirmation on a few stages: the ordered
	// configuration delivers ~full bandwidth.
	sampled, err := mpi.SampleStages(alltoall, []int{0, 80, 161, 242})
	if err != nil {
		panic(err)
	}
	cfg := netsim.DefaultConfig()
	st, err := job.Simulate(sampled, 128<<10, false, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("packet sim (4 stages, 128 KiB): normalized BW = %.3f\n",
		job.NormalizedBandwidth(st, cfg))
	// Output:
	// cluster: PGFT(2;18,18;1,9;1,2) (324 hosts, 27 switches, 648 links)
	// shift under topology order: max HSD = 1 (contention-free: true)
	// shift under random order:   max HSD = 7, avg 4.29
	// packet sim (4 stages, 128 KiB): normalized BW = 0.996
}

// Every distinct sequence of the MVAPICH/OpenMPI catalogue (Table 1) on
// the 324-node cluster, under the topology-aware order and averaged
// over five random placements — the decision a cluster operator faces
// when configuring the subnet manager and the batch scheduler. 1.00
// under "ordered" means zero contention in every stage; the flat
// recursive-doubling rows show why Section VI reshapes the exchange.
func ExampleCatalog() {
	cluster := topo.MustBuild(topo.Cluster324)
	n := cluster.NumHosts()
	// Compile the tables once: every row and every random-order sweep
	// replays the same 324² paths from the packed arena.
	paths, err := route.Compile(route.DModK(cluster))
	if err != nil {
		panic(err)
	}
	good := order.Topology(n, nil)
	var random []*order.Ordering
	for seed := int64(1); seed <= 5; seed++ {
		random = append(random, order.Random(n, nil, seed))
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "collective\talgorithm\tCPS\tordered HSD\trandom HSD (mean of 5)")
	seen := map[mpi.CPSKind]bool{}
	for _, use := range mpi.Catalog {
		if seen[use.CPS] {
			continue // one row per distinct sequence
		}
		seen[use.CPS] = true
		// Pow2-only algorithms are evaluated anyway: the CPS handles 324
		// ranks through pre/post proxy stages.
		seq, err := mpi.NewSequence(use.CPS, n)
		if err != nil {
			panic(err)
		}
		rep, err := hsd.Analyze(paths, good, seq)
		if err != nil {
			panic(err)
		}
		sw, err := hsd.SweepOrderingsParallel(paths, random, seq, 0)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.2f\t%.2f\n", use.Collective, use.Algorithm, use.CPS, rep.AvgMaxHSD(), sw.Mean)
	}
	// The paper's fix for the bidirectional family: Section VI's
	// topology-aware recursive doubling.
	ta, err := cps.TopoAwareRecursiveDoubling(topo.Cluster324.M)
	if err != nil {
		panic(err)
	}
	rep, err := hsd.Analyze(paths, good, ta)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "allreduce\tthis paper (Sec. VI)\t%s\t%.2f\t-\n", ta.Name(), rep.AvgMaxHSD())
	w.Flush()
	// Output:
	// collective  algorithm                 CPS                            ordered HSD  random HSD (mean of 5)
	// allgather   ring                      ring                           1.00         3.80
	// allgather   recursive-doubling        recursive-doubling             1.40         3.56
	// allgather   bruck                     dissemination                  1.00         4.38
	// allreduce   reduce-scatter-allgather  recursive-halving              1.40         3.56
	// alltoall    pairwise-exchange         shift                          1.00         4.34
	// barrier     tournament                tournament                     1.00         1.56
	// broadcast   binomial                  binomial                       1.00         1.67
	// allreduce   this paper (Sec. VI)      topo-aware-recursive-doubling  1.00         -
}

// Ask what algorithm a library would run, like its tuned-collectives
// layer does.
func ExampleSelectAlgorithm() {
	small, _ := mpi.SelectAlgorithm(mpi.MVAPICH, "allreduce", 324, 1024)
	large, _ := mpi.SelectAlgorithm(mpi.OpenMPI, "allreduce", 324, 1<<20)
	fmt.Printf("mvapich small allreduce: %s (%s)\n", small.Use.Algorithm, small.Use.CPS)
	fmt.Printf("openmpi large allreduce: %s (%s)\n", large.Use.Algorithm, large.Use.CPS)
	// Output:
	// mvapich small allreduce: recursive-doubling (recursive-doubling)
	// openmpi large allreduce: ring (ring)
}
