package hsd

import (
	"runtime"
	"sync/atomic"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/par"
	"fattree/internal/route"
)

// Analyze runs a full sequence through the analyzer: CPS ranks are
// translated to end-ports via the ordering, and the stages are fanned out
// over GOMAXPROCS workers, one analyzer each, into a pre-sized slice. As
// in Stage, self pairs and pairs the arena marks Broken are not flows, so
// over a degraded arena the report counts the pairs the fabric still
// serves. The router must be safe for concurrent Walk calls (arenas, LFTs
// and S-Mod-K are; the adaptive router serializes internally).
func Analyze(rt route.Router, o *order.Ordering, seq cps.Sequence) (*Report, error) {
	if err := checkJob(rt, o, seq, make([]int32, rt.Topology().NumHosts())); err != nil {
		return nil, err
	}
	rep := &Report{
		Sequence: seq.Name(),
		Ordering: o.Label,
		Routing:  rt.Label(),
		Stages:   make([]StageResult, seq.NumStages()),
	}
	var climbed atomic.Int64
	err := par.Do(len(rep.Stages), 0, func() *Analyzer { return NewAnalyzer(rt) }, func(a *Analyzer, s int) (err error) {
		st, sh := stageShape(seq, s, a.climb > 0, a.ends) // once exactly where stageRanks climbs
		if sh.once {
			climbed.Add(1)
		}
		rep.Stages[s], err = a.stageRanks(st, sh, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.Climbed = int(climbed.Load())
	return rep, nil
}

// SweepOrderingsParallel fans the per-ordering analyses of a sweep over
// a worker pool (orderings are independent too). The sequence's stages
// and their shapes are built once, over the same pool with one shapeOf
// scratch per worker, and shared read-only by every ordering (on a
// climbing arena a declared rotation is its shape alone: stageShape); a
// sweep with fewer orderings than workers splits each ordering's stages
// so no core idles. workers <= 0 uses GOMAXPROCS. Stages count flows as
// Analyze does.
func SweepOrderingsParallel(rt route.Router, orders []*order.Ordering, seq cps.Sequence, workers int) (Sweep, error) {
	if len(orders) == 0 {
		return Sweep{}, nil
	}
	owner := make([]int32, rt.Topology().NumHosts())
	for _, o := range orders {
		if err := checkJob(rt, o, seq, owner); err != nil {
			return Sweep{}, err
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stages, shapes := make([]cps.Stage, seq.NumStages()), make([]shape, seq.NumStages())
	climbing := climbWidth(rt) > 0
	_ = par.Do(len(stages), workers, func() []uint64 { return rankBits(seq.Size()) }, func(ends []uint64, s int) error {
		stages[s], shapes[s] = stageShape(seq, s, climbing, ends)
		return nil
	})
	// A work item is one of an ordering's `split` stage ranges. Per-stage
	// maxima are integers, so their sum does not depend on how the stages
	// were split and the averages equal Report.AvgMaxHSD bit for bit.
	split := max(1, min((workers+len(orders)-1)/len(orders), len(stages)))
	type tally struct{ sum, stages int }
	parts := make([]tally, len(orders)*split)
	err := par.Do(len(parts), workers, func() *Analyzer { return NewAnalyzer(rt) }, func(a *Analyzer, i int) error {
		var t tally
		lo, hi := i%split*len(stages)/split, (i%split+1)*len(stages)/split
		for s := lo; s < hi; s++ {
			sr, err := a.stageRanks(stages[s], shapes[s], orders[i/split])
			if err != nil {
				return err
			}
			if sr.Flows > 0 {
				t.sum += sr.MaxHSD
				t.stages++
			}
		}
		parts[i] = t
		return nil
	})
	if err != nil {
		return Sweep{}, err
	}
	var sw Sweep
	for i := range orders {
		var t tally
		for _, p := range parts[i*split : (i+1)*split] {
			t.sum += p.sum
			t.stages += p.stages
		}
		v := 0.0
		if t.stages > 0 {
			v = float64(t.sum) / float64(t.stages)
		}
		sw.Mean += v
		if i == 0 || v < sw.Min {
			sw.Min = v
		}
		if i == 0 || v > sw.Max {
			sw.Max = v
		}
	}
	sw.Mean /= float64(len(orders))
	return sw, nil
}
