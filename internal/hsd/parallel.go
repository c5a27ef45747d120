package hsd

import (
	"runtime"
	"sync"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/route"
)

// AnalyzeParallel is Analyze with the stages fanned out over a worker
// pool — stages are independent, so the per-link counting parallelizes
// embarrassingly. Each worker owns its counter arrays; results land in a
// pre-sized slice, so no ordering coordination is needed. workers <= 0
// uses GOMAXPROCS. The router must be safe for concurrent Walk calls
// (LFTs and S-Mod-K are; the adaptive router serializes internally).
func AnalyzeParallel(rt route.Router, o *order.Ordering, seq cps.Sequence, workers int) (*Report, error) {
	if err := checkSizes(rt, o, seq); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nStages := seq.NumStages()
	if workers > nStages {
		workers = nStages
	}
	rep := &Report{
		Sequence: seq.Name(),
		Ordering: o.Label,
		Routing:  rt.Label(),
		Stages:   make([]StageResult, nStages),
	}
	if nStages == 0 {
		return rep, nil
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     = make(chan int, nStages)
	)
	for s := 0; s < nStages; s++ {
		next <- s
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewAnalyzer(rt)
			var pairs [][2]int
			for s := range next {
				pairs = hostPairs(pairs, seq.Stage(s), o, nil)
				sr, err := a.Stage(pairs)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				rep.Stages[s] = sr
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return rep, nil
}

// SweepOrderingsParallel fans the per-ordering analyses of a sweep over
// a worker pool (orderings are independent too). workers <= 0 uses
// GOMAXPROCS.
func SweepOrderingsParallel(rt route.Router, orders []*order.Ordering, seq cps.Sequence, workers int) (Sweep, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(orders) {
		workers = len(orders)
	}
	if len(orders) == 0 {
		return Sweep{}, nil
	}
	vals := make([]float64, len(orders))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     = make(chan int, len(orders))
	)
	for i := range orders {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				rep, err := Analyze(rt, orders[i], seq)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				vals[i] = rep.AvgMaxHSD()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return Sweep{}, firstErr
	}
	sw := Sweep{Min: vals[0], Max: vals[0], Samples: len(vals)}
	for _, v := range vals {
		sw.Mean += v
		if v < sw.Min {
			sw.Min = v
		}
		if v > sw.Max {
			sw.Max = v
		}
	}
	sw.Mean /= float64(len(vals))
	return sw, nil
}
