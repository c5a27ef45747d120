// Command ftorder emits the topology-aware MPI rank order for a cluster
// or an allocation on it — the artifact a batch system feeds to mpirun
// as a rankfile/hostfile so that MPI_COMM_WORLD ranks land on the
// end-ports the routing expects.
//
// Usage:
//
//	ftorder -topo 324                          # full cluster rankfile
//	ftorder -topo 324 -job 162                 # first granule-aligned job
//	ftorder -topo 324 -drop 18 -drop-seed 3    # partial cluster
//	ftorder -topo 324 -format hostlist
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"fattree/internal/cli"
	"fattree/internal/order"
	"fattree/internal/sched"
	"fattree/internal/topo"
)

func main() { os.Exit(cli.Main("ftorder", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec   = a.Topo("324")
		job    = a.Flags.Int("job", 0, "allocate a job of this size via the granule-aware scheduler (0 = whole cluster)")
		drop   = a.Drop()
		format = a.Flags.String("format", "rankfile", "output: rankfile | hostlist")
	)
	a.Profile()
	return func(w io.Writer) error { return run(w, a.Stderr, *spec, *job, drop, *format) }
}

func run(out, stderr io.Writer, spec string, jobSize int, drop *cli.Drop, format string) error {
	if jobSize < 0 {
		return fmt.Errorf("-job %d: want a job size, or 0 for the whole cluster", jobSize)
	}
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return err
	}
	g, n := t.Spec, t.NumHosts()

	var active []int
	if jobSize > 0 {
		alloc, err := sched.New(t)
		if err != nil {
			return err
		}
		j, err := alloc.Alloc(jobSize)
		if err != nil {
			return err
		}
		active = j.Hosts
		if !j.ContentionFree {
			fmt.Fprintf(stderr, "ftorder: warning: %d is not a multiple of the allocation granule %d; the job is not guaranteed contention free\n",
				jobSize, alloc.Granule())
		}
	} else if active, err = drop.Active(n); err != nil {
		return err
	}

	o := order.Topology(n, active)
	w := bufio.NewWriter(out)
	defer w.Flush()
	switch format {
	case "rankfile":
		// OpenMPI rankfile syntax: rank <r>=<host> slot=0. Host names
		// follow the leaf-based convention node<leaf>-<slot>.
		for r, h := range o.HostOf {
			fmt.Fprintf(w, "rank %d=%s slot=0\n", r, hostName(g, h))
		}
	case "hostlist":
		for _, h := range o.HostOf {
			fmt.Fprintf(w, "%s\n", hostName(g, h))
		}
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

// hostName derives a deterministic node name from the end-port index:
// node<leaf>-<slot> for trees with leaves, node<index> otherwise.
func hostName(g topo.PGFT, h int) string {
	k := g.Mi(1)
	return fmt.Sprintf("node%03d-%02d", h/k, h%k)
}
