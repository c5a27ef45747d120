package sched

import (
	"fmt"
	"math/rand"

	"fattree/internal/des"
	"fattree/internal/topo"
)

// QueueConfig drives a synthetic job-trace simulation through the
// allocator: jobs arrive, wait FIFO until they fit, run, and leave. It
// quantifies the operational cost of the contention-free policy — how
// much utilization padding job sizes up to the allocation granule
// sacrifices, against how many jobs run with the HSD = 1 guarantee.
type QueueConfig struct {
	Seed             int64
	Jobs             int
	MeanInterarrival des.Time
	MeanDuration     des.Time
	// MaxGranules bounds job sizes: a request draws uniformly from
	// [1, MaxGranules] granules, then (unless AlignedFraction applies)
	// subtracts a random sub-granule remainder.
	MaxGranules int
	// AlignedFraction is the probability a request is already a
	// granule multiple.
	AlignedFraction float64
	// PadToGranule rounds every request up to the next granule
	// multiple before allocation (the contention-free admission
	// policy).
	PadToGranule bool
	// WaitForAligned admits a job only into a granule-aligned block,
	// keeping it queued otherwise — full isolation at the cost of
	// waiting. Implies the padded sizes should be granule multiples to
	// be useful.
	WaitForAligned bool
}

// QueueStats summarizes a queue simulation.
type QueueStats struct {
	Completed      int
	ContentionFree int
	Isolated       int
	// MeanWait is the average time jobs spent queued.
	MeanWait des.Time
	// AvgUtilization is the time-weighted allocated fraction.
	AvgUtilization float64
	// Makespan is when the last job finished.
	Makespan des.Time
}

// CFFraction is the share of jobs that ran with the guarantee.
func (q QueueStats) CFFraction() float64 {
	if q.Completed == 0 {
		return 0
	}
	return float64(q.ContentionFree) / float64(q.Completed)
}

type queuedJob struct {
	size    int
	arrived des.Time
	dur     des.Time
}

// SimulateQueue replays a generated trace through the allocator under
// the given admission policy.
func SimulateQueue(t *topo.Topology, cfg QueueConfig) (QueueStats, error) {
	if cfg.Jobs < 1 || cfg.MeanInterarrival <= 0 || cfg.MeanDuration <= 0 || cfg.MaxGranules < 1 {
		return QueueStats{}, fmt.Errorf("sched: bad queue config %+v", cfg)
	}
	alloc, err := New(t)
	if err != nil {
		return QueueStats{}, err
	}
	g := alloc.Granule()
	if cfg.MaxGranules*g > t.NumHosts() {
		return QueueStats{}, fmt.Errorf("sched: MaxGranules %d exceeds the machine (%d hosts, granule %d)",
			cfg.MaxGranules, t.NumHosts(), g)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sched := des.NewScheduler()

	var (
		stats     QueueStats
		queue     []queuedJob
		lastEvent des.Time
		utilAcc   float64
		waitSum   des.Time
	)
	account := func() {
		now := sched.Now()
		utilAcc += alloc.Utilization() * float64(now-lastEvent)
		lastEvent = now
	}
	var admit func()
	admit = func() {
		for len(queue) > 0 {
			j := queue[0]
			var a *Allocation
			var err error
			if cfg.WaitForAligned {
				a, err = alloc.AllocAligned(j.size)
			} else {
				if j.size > alloc.FreeHosts() {
					return // FIFO head blocks
				}
				a, err = alloc.Alloc(j.size)
			}
			if err != nil {
				return // FIFO head blocks until space frees
			}
			queue = queue[1:]
			waitSum += sched.Now() - j.arrived
			if a.ContentionFree {
				stats.ContentionFree++
			}
			if a.Isolated {
				stats.Isolated++
			}
			id := a.ID
			sched.After(j.dur, func() {
				account()
				if err := alloc.Free(id); err != nil {
					panic(err)
				}
				stats.Completed++
				admit()
			})
		}
	}

	// Generate arrivals.
	at := des.Time(0)
	for i := 0; i < cfg.Jobs; i++ {
		at += des.Time(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		size := (1 + rng.Intn(cfg.MaxGranules)) * g
		if rng.Float64() >= cfg.AlignedFraction {
			size -= rng.Intn(g) // ragged request
		}
		if cfg.PadToGranule && size%g != 0 {
			size += g - size%g
		}
		dur := des.Time(rng.ExpFloat64() * float64(cfg.MeanDuration))
		if dur < des.Nanosecond {
			dur = des.Nanosecond
		}
		j := queuedJob{size: size, dur: dur}
		sched.At(at, func() {
			account()
			j.arrived = sched.Now()
			queue = append(queue, j)
			admit()
		})
	}
	if !sched.Run(0) {
		return QueueStats{}, fmt.Errorf("sched: queue simulation did not drain")
	}
	if len(queue) > 0 {
		return QueueStats{}, fmt.Errorf("sched: %d jobs stuck in the queue", len(queue))
	}
	stats.Makespan = sched.Now()
	if stats.Makespan > 0 {
		stats.AvgUtilization = utilAcc / float64(stats.Makespan)
	}
	if stats.Completed > 0 {
		stats.MeanWait = waitSum / des.Time(stats.Completed)
	}
	return stats, nil
}
