// Command ftsim runs the packet-level network simulator on a collective:
// it reports effective bandwidth (absolute and normalized to the PCIe
// injection capacity) and message latency, under a chosen node ordering.
//
// Usage:
//
//	ftsim -topo 324 -cps ring -order topology -bytes 262144
//	ftsim -topo 324 -cps ring -order adversarial -bytes 65536
//	ftsim -topo 1944 -cps shift -order random -bytes 131072 -sample 8
//	ftsim -topo 324 -cps ring -trace run.json -metrics run.jsonl
//	ftsim -topo 324 -cps shift -sample 4 -progress 1s -link-probes links.jsonl
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"fattree/internal/cli"
	"fattree/internal/des"
	"fattree/internal/engine"
	"fattree/internal/mpi"
	"fattree/internal/netsim"
	"fattree/internal/obs"
	"fattree/internal/order"
)

func main() { os.Exit(cli.Main("ftsim", os.Args[1:], os.Stdout, os.Stderr, setup)) }

func setup(a *cli.App) func(io.Writer) error {
	var (
		spec     = a.Topo("324")
		engName  = a.Engine()
		cpsName  = a.Flags.String("cps", "ring", "CPS name (see fthsd) or topo-aware")
		ordering = a.Flags.String("order", "topology", "ordering: topology | random | adversarial | cyclic")
		seed     = a.Seed(1, "seed for the random ordering and randomized engines")
		bytes    = a.Flags.Int64("bytes", 262144, "message payload per stage pair")
		mode     = a.Flags.String("mode", "async", "stage progression: async | dependent | barrier")
		sample   = a.Flags.Int("sample", 0, "sample this many stages of long sequences (0 = all)")
		linkBW   = a.Flags.Float64("link-bw", 4000e6, "link bandwidth bytes/s")
		hostBW   = a.Flags.Float64("host-bw", 3250e6, "host injection bandwidth bytes/s")
		bufPkts  = a.Flags.Int("buffers", 8, "input-buffer packets per switch port")
		progress = a.Flags.Duration("progress", 0, "print a live progress line to stderr at this wall-clock interval (0 = off)")
		sinks    = a.Sinks()
	)
	a.Profile()
	return func(w io.Writer) error {
		return run(w, a.Stderr, *spec, *engName, *cpsName, *ordering, *seed, *bytes, *mode, *sample, *linkBW, *hostBW, *bufPkts, *progress, sinks)
	}
}

func run(w, stderr io.Writer, spec, engName, cpsName, ordering string, seed, bytes int64, modeName string, sample int, linkBW, hostBW float64, bufPkts int, progress time.Duration, sinks *obs.FileSinks) error {
	var mode mpi.Mode
	switch modeName {
	case "async":
		mode = mpi.Async
	case "dependent":
		mode = mpi.Dependent
	case "barrier":
		mode = mpi.Barrier
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}
	if sample < 0 {
		return fmt.Errorf("-sample %d: want 0 (all stages) or a positive stage count", sample)
	}
	t, err := cli.BuildTopo(spec)
	if err != nil {
		return err
	}
	tb, err := engine.Resolve(engName, t, engine.Options{Seed: seed}, nil)
	if err != nil {
		return err
	}
	o, err := order.ByName(ordering, t, nil, seed)
	if err != nil {
		return err
	}
	seq, err := mpi.SequenceByName(cpsName, t.Spec, nil, sample)
	if err != nil {
		return err
	}

	cfg := netsim.DefaultConfig()
	cfg.LinkBandwidth = linkBW
	cfg.HostBandwidth = hostBW
	cfg.BufferPackets = bufPkts
	cfg.Metrics = sinks.Registry
	cfg.Probes = sinks.Sampler
	cfg.Trace = sinks.Tracer
	cfg.LinkProbes = sinks.LinkSampler
	if progress > 0 {
		p := &netsim.Progress{}
		cfg.Progress = p
		stop := p.Report(stderr, progress, "ftsim")
		defer stop()
	}
	job, err := mpi.NewJob(tb.Compiled, o)
	if err != nil {
		return err
	}
	st, err := job.SimulateMode(seq, bytes, mode, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s / %s / %s / %s on %s\n", seq.Name(), tb.Compiled.Label(), o.Label, mode, t.Spec)
	fmt.Fprintf(w, "  stages: %d  messages: %d  bytes: %d\n", seq.NumStages(), st.MessagesDelivered, st.BytesDelivered)
	fmt.Fprintf(w, "  makespan: %.3f ms  events: %d\n", float64(st.Duration)/float64(des.Millisecond), st.Events)
	fmt.Fprintf(w, "  aggregate BW: %.1f MB/s  normalized: %.3f\n",
		st.EffectiveBandwidth()/1e6, job.NormalizedBandwidth(st, cfg))
	fmt.Fprintf(w, "  msg latency: mean %.2f us  min %.2f us  max %.2f us\n",
		float64(st.MeanLatency())/float64(des.Microsecond),
		float64(st.LatencyMin)/float64(des.Microsecond),
		float64(st.LatencyMax)/float64(des.Microsecond))
	for i, d := range st.StageDurations {
		fmt.Fprintf(w, "  stage %3d: %.3f ms\n", i, float64(d)/float64(des.Millisecond))
	}
	return nil
}
