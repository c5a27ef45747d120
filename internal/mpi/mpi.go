// Package mpi binds the pieces together the way an MPI library does: a
// job (topology + routing + node ordering) runs collectives whose
// communication is a collective permutation sequence (Section III). The
// package translates CPS stages into end-port traffic for the analytic
// HSD model and the packet simulator. The paper's Table 1 catalogue of
// which MVAPICH/OpenMPI collective algorithms use which CPS, and the
// data-level executors that check a sequence computes its collective,
// are test oracles (catalog_test.go, datasim_test.go, segments_test.go).
package mpi

import (
	"fmt"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/netsim"
	"fattree/internal/order"
	"fattree/internal/par"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// Job is a single MPI job on a cluster: the topology, the programmed
// routing and the rank-to-end-port assignment.
type Job struct {
	Topo  *topo.Topology
	Route route.Router
	Order *order.Ordering
}

// NewJob validates the cross-references between the pieces.
func NewJob(rt route.Router, o *order.Ordering) (*Job, error) {
	if o.NumHosts() != rt.Topology().NumHosts() {
		return nil, fmt.Errorf("mpi: ordering built for %d hosts, topology has %d", o.NumHosts(), rt.Topology().NumHosts())
	}
	return &Job{Topo: rt.Topology(), Route: rt, Order: o}, nil
}

// NewContentionFreeJob builds the paper's recommended configuration for
// the active hosts of a topology: rank-compacted D-Mod-K routing plus
// topology-aware ordering. active == nil means the whole cluster.
func NewContentionFreeJob(t *topo.Topology, active []int) (*Job, error) {
	var lft *route.LFT
	if active == nil {
		lft = route.DModK(t)
	} else {
		var err error
		lft, err = route.DModKActive(t, active)
		if err != nil {
			return nil, err
		}
	}
	o := order.Topology(t.NumHosts(), active)
	return NewJob(lft, o)
}

// Size returns the job size (number of ranks).
func (j *Job) Size() int { return j.Order.Size() }

// StageMessages translates stage s of the sequence into simulator
// messages of the given payload size.
func (j *Job) StageMessages(seq cps.Sequence, s int, bytes int64) []netsim.Message {
	stage := seq.Stage(s)
	msgs := make([]netsim.Message, 0, len(stage))
	for _, p := range stage {
		msgs = append(msgs, netsim.Message{
			Src:   j.Order.HostOf[p.Src],
			Dst:   j.Order.HostOf[p.Dst],
			Bytes: bytes,
		})
	}
	return msgs
}

// AllMessages translates every stage.
func (j *Job) AllMessages(seq cps.Sequence, bytes int64) [][]netsim.Message {
	out := make([][]netsim.Message, seq.NumStages())
	for s := range out {
		out[s] = j.StageMessages(seq, s, bytes)
	}
	return out
}

// Analyze runs the analytic HSD model on the sequence.
func (j *Job) Analyze(seq cps.Sequence) (*hsd.Report, error) {
	return hsd.Analyze(j.Route, j.Order, seq)
}

// Mode selects the stage-progression semantics of a simulation.
type Mode int

const (
	// Async is the paper's Section II semantics: each end-port starts
	// its next message as soon as the previous one has been sent to
	// the wire, with no cross-host coordination.
	Async Mode = iota
	// Barrier separates stages with a global barrier (worst-case
	// synchronized semantics).
	Barrier
	// Dependent is real collective semantics: a rank enters stage s+1
	// only after its stage-s sends have left and its stage-s receives
	// have arrived.
	Dependent
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Async:
		return "async"
	case Barrier:
		return "barrier"
	case Dependent:
		return "dependent"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Simulate runs the sequence through the packet simulator. With sync set,
// a barrier separates stages; otherwise every end-port progresses
// asynchronously. See SimulateMode for the full semantics menu.
func (j *Job) Simulate(seq cps.Sequence, bytes int64, sync bool, cfg netsim.Config) (netsim.Stats, error) {
	mode := Async
	if sync {
		mode = Barrier
	}
	return j.SimulateMode(seq, bytes, mode, cfg)
}

// SimulateMode runs the sequence under the chosen progression semantics,
// on a Network of its own: a Job holds no simulator between calls.
func (j *Job) SimulateMode(seq cps.Sequence, bytes int64, mode Mode, cfg netsim.Config) (netsim.Stats, error) {
	return Case{Job: j, Seq: seq, Bytes: bytes, Mode: mode, Config: cfg}.run()
}

// Case is one simulation of a SimulateAll batch: a sequence of Bytes-sized
// messages on a job, under a progression mode and a calibration.
type Case struct {
	Job    *Job
	Seq    cps.Sequence
	Bytes  int64
	Mode   Mode
	Config netsim.Config
}

// SimulateAll runs independent simulations, each on a Network of its own,
// and returns their Stats in input order. The cases may span jobs. They
// run on GOMAXPROCS workers, except that a batch where any case attaches
// a writer or an observer (flow log, metrics, probes, link probes,
// progress, trace), or routes through a route.Adaptive (one shared RNG),
// runs on one worker in input order: shared sinks and draws then see
// exactly what a loop of SimulateMode calls would give them. Once a case
// fails no further case starts, and the error is that of the
// lowest-index failed case among those that ran.
func SimulateAll(cases []Case) ([]netsim.Stats, error) {
	return simulateAll(cases, 0)
}

// simulateAll is SimulateAll on at most workers goroutines (<= 0 uses
// GOMAXPROCS).
func simulateAll(cases []Case, workers int) ([]netsim.Stats, error) {
	for _, c := range cases {
		if _, adaptive := c.Job.Route.(*route.Adaptive); adaptive || !plainConfig(c.Config) {
			workers = 1
			break
		}
	}
	out := make([]netsim.Stats, len(cases))
	err := par.Do[struct{}](len(cases), workers, nil, func(_ struct{}, i int) (err error) {
		out[i], err = cases[i].run()
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// run simulates one case on a fresh Network.
func (c Case) run() (netsim.Stats, error) {
	cfg := c.Config
	if cfg.Trace != nil && cfg.TraceLabel == "" {
		// Name the trace's collective-phase lane after the sequence so
		// a Perfetto view says which CPS the stage markers belong to.
		cfg.TraceLabel = c.Seq.Name()
	}
	nw, err := netsim.New(c.Job.Route, cfg)
	if err != nil {
		return netsim.Stats{}, err
	}
	stages := c.Job.AllMessages(c.Seq, c.Bytes)
	switch c.Mode {
	case Barrier:
		return nw.RunStages(stages)
	case Dependent:
		return nw.RunDependent(stages)
	default:
		var flat []netsim.Message
		for _, st := range stages {
			flat = append(flat, st...)
		}
		return nw.Run(flat)
	}
}

// plainConfig reports whether cfg carries no writer or observer
// attachments, the precondition for running cases side by side.
func plainConfig(cfg netsim.Config) bool {
	return cfg.FlowLog == nil && cfg.Metrics == nil && cfg.Probes == nil &&
		cfg.Trace == nil && cfg.LinkProbes == nil && cfg.Progress == nil
}

// NormalizedBandwidth scales an aggregate bandwidth to the job's ideal
// injection capacity (size * per-host cap), the Y axis of Figure 2.
func (j *Job) NormalizedBandwidth(st netsim.Stats, cfg netsim.Config) float64 {
	ideal := cfg.HostBandwidth * float64(j.Size())
	if ideal == 0 {
		return 0
	}
	return st.EffectiveBandwidth() / ideal
}

// SampleStages wraps a sequence exposing only the selected stage indices
// — used to keep packet simulations of the 1943-stage Shift tractable
// while preserving per-stage behaviour.
func SampleStages(seq cps.Sequence, stages []int) (cps.Sequence, error) {
	for _, s := range stages {
		if s < 0 || s >= seq.NumStages() {
			return nil, fmt.Errorf("mpi: stage %d out of range [0,%d)", s, seq.NumStages())
		}
	}
	return &sampledSeq{inner: seq, idx: append([]int(nil), stages...)}, nil
}

// SampleEvenly keeps k evenly spaced stages of seq (stage i*floor(S/k)
// of S); k <= 0 or k >= S keeps the sequence whole.
func SampleEvenly(seq cps.Sequence, k int) (cps.Sequence, error) {
	if k <= 0 || k >= seq.NumStages() {
		return seq, nil
	}
	idx := make([]int, k)
	step := seq.NumStages() / k
	for i := range idx {
		idx[i] = i * step
	}
	return SampleStages(seq, idx)
}

type sampledSeq struct {
	inner cps.Sequence
	idx   []int
}

func (s *sampledSeq) Name() string          { return s.inner.Name() + "-sampled" }
func (s *sampledSeq) Size() int             { return s.inner.Size() }
func (s *sampledSeq) NumStages() int        { return len(s.idx) }
func (s *sampledSeq) Stage(i int) cps.Stage { return s.inner.Stage(s.idx[i]) }
func (s *sampledSeq) Bidirectional() bool   { return s.inner.Bidirectional() }
