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
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

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
	Route route.Router
	Order *order.Ordering
}

// NewJob validates the cross-references between the pieces.
func NewJob(rt route.Router, o *order.Ordering) (*Job, error) {
	if o.NumHosts() != rt.Topology().NumHosts() {
		return nil, fmt.Errorf("mpi: ordering built for %d hosts, topology has %d", o.NumHosts(), rt.Topology().NumHosts())
	}
	return &Job{Route: rt, Order: o}, nil
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

// Simulate runs the sequence through the packet simulator. With sync set,
// a barrier separates stages; otherwise every end-port progresses
// asynchronously. See SimulateMode for the full semantics menu.
func (j *Job) Simulate(seq cps.Sequence, bytes int64, sync bool, cfg netsim.Config) (netsim.Stats, error) {
	mode := netsim.Async
	if sync {
		mode = netsim.Barrier
	}
	return j.SimulateMode(seq, bytes, mode, cfg)
}

// SimulateMode runs the sequence under the chosen progression semantics,
// on a Network of its own: a Job holds no simulator between calls.
func (j *Job) SimulateMode(seq cps.Sequence, bytes int64, mode netsim.Mode, cfg netsim.Config) (netsim.Stats, error) {
	return Case{Job: j, Seq: seq, Bytes: bytes, Mode: mode, Config: cfg}.run()
}

// Case is one simulation of a SimulateAll batch: a sequence of Bytes-sized
// messages on a job, under a progression mode and a calibration.
type Case struct {
	Job    *Job
	Seq    cps.Sequence
	Bytes  int64
	Mode   netsim.Mode
	Config netsim.Config
}

// SimulateAll runs independent simulations, each on a Network of its own,
// and returns their Stats in input order. The cases may span jobs. They
// run on GOMAXPROCS workers, longest first (by Bytes x stages), so the
// largest case does not start last and leave the other workers idle;
// except that a batch where any case attaches an observer (metrics,
// probes, progress, trace), or routes through a route.Adaptive (one
// shared RNG), runs on one worker in input order: shared sinks and draws
// then see exactly what a loop of SimulateMode calls would give them.
// Once a case fails no case after it in input order starts, and the error
// is that of the first case in input order that fails, whatever the
// worker count.
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	next := handOut(cases, workers)
	out, errs := make([]netsim.Stats, len(cases)), make([]error, len(cases))
	var mu sync.Mutex
	failed := len(cases) // the lowest index that failed so far
	par.Do[struct{}](len(cases), workers, nil, func(_ struct{}, k int) error {
		i := next[k]
		mu.Lock()
		skip := i > failed // a case before it failed: it does not start
		mu.Unlock()
		if skip {
			return nil
		}
		if out[i], errs[i] = cases[i].run(); errs[i] != nil {
			mu.Lock()
			failed = min(failed, i)
			mu.Unlock()
		}
		return nil
	})
	if failed < len(cases) {
		return nil, errs[failed]
	}
	return out, nil
}

// handOut returns the order workers take cases in: input order on one
// worker, otherwise the longest first — Bytes x stages, descending, ties
// in input order.
func handOut(cases []Case, workers int) []int {
	next := make([]int, len(cases))
	for i := range next {
		next[i] = i
	}
	if workers > 1 {
		cost := func(i int) int64 { return cases[i].Bytes * int64(cases[i].Seq.NumStages()) }
		slices.SortStableFunc(next, func(a, b int) int { return cmp.Compare(cost(b), cost(a)) })
	}
	return next
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
	return nw.Run(c.Job.AllMessages(c.Seq, c.Bytes), c.Mode)
}

// plainConfig reports whether cfg carries no observer
// attachments, the precondition for running cases side by side.
func plainConfig(cfg netsim.Config) bool {
	return cfg.Metrics == nil && cfg.Probes == nil &&
		cfg.Trace == nil && cfg.Progress == nil
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

// Rotation implements cps.Rotating: a sampled stage rotates as the inner
// stage does.
func (s *sampledSeq) Rotation(i int) int {
	if r, ok := s.inner.(cps.Rotating); ok {
		return r.Rotation(s.idx[i])
	}
	return 0
}

// Exchange implements cps.Exchanging: a sampled stage exchanges as the
// inner stage does.
func (s *sampledSeq) Exchange(i int) (m, span int) {
	if x, ok := s.inner.(cps.Exchanging); ok {
		return x.Exchange(s.idx[i])
	}
	return 0, 0
}
