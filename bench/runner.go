package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"syscall"
	"time"

	"fattree/internal/topo"
)

// sizes fixes how much work each workload does. paperSizes is the
// benchmark; testSizes is the reduced shape bench_test.go runs under
// tier-1 and is never reported.
type sizes struct {
	fig2Cluster     topo.PGFT
	fig2Bytes       []int64
	fig2ShiftStages int

	sweepCluster topo.PGFT
	sweepOrders  int // seeded random orders beside the topology order
	sweepStride  int // every k-th Shift stage

	daemonCluster topo.PGFT
	pollEvery     time.Duration // fault-churn324 client poll schedule

	setups      int           // fewest set-ups per run; the median is reported
	setupBudget time.Duration // cheap set-ups repeat until this is spent
	fig2Warm    int           // discarded leading reproductions
	sweepWarm   int           // discarded leading pipeline iterations
	warmReqs    int           // discarded leading requests per serving client
	probeReps   int           // repetitions of a per-layer probe
	desEvents   int           // events of the bare scheduler probe
}

func paperSizes() sizes {
	return sizes{
		fig2Cluster:     topo.Cluster324,
		fig2Bytes:       []int64{8 << 10, 64 << 10, 512 << 10},
		fig2ShiftStages: 4,
		sweepCluster:    topo.Cluster1944,
		sweepOrders:     24,
		sweepStride:     9,
		daemonCluster:   topo.Cluster324,
		pollEvery:       time.Millisecond,
		setups:          5,
		setupBudget:     500 * time.Millisecond,
		fig2Warm:        2,
		sweepWarm:       1,
		warmReqs:        200,
		probeReps:       15,
		desEvents:       1 << 20,
	}
}

// runOpts is one invocation of one workload.
type runOpts struct {
	workload string
	seed     int64
	seconds  float64 // timed region of this pass
	ledger   bool    // a pass of the traced run: also measure the per-layer-only rows
	sz       sizes
	log      io.Writer // human-readable notes beside the metric table
}

// budget returns the pass's timed region as a duration.
func (o runOpts) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// checker counts operations and the ones that errored or failed a
// correctness check; it keeps the first few reasons for the report.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (c *checker) op(err error) {
	failed := 0
	if err != nil {
		failed = 1
	}
	c.ops(1, failed, err)
}

// ops records a batch of attempted operations, failed of which failed
// for (at least) the given reason.
func (c *checker) ops(attempted, failed int, reason error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += attempted
	c.failed += failed
	if reason != nil && len(c.reasons) < 8 {
		c.reasons = append(c.reasons, reason.Error())
	}
}

// cpuNow returns the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Getrusage(RUSAGE_SELF) fails only on a bad pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refSpinMS times a fixed piece of pure integer work (no memory, no
// system calls): how fast this box is right now. Workload numbers from
// two runs compare only if this reads about the same in both; on the
// shared 2-core VM this was written on it has read 3x apart within an
// hour.
func refSpinMS() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ { // xorshift64: a dependent chain the compiler cannot fold
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := ms(time.Since(t0))
		if x != 0 && (rep == 0 || d < best) {
			best = d
		}
	}
	return best
}

// heapLiveMB returns HeapAlloc after a forced collection, in MB
// (1e6 bytes). Call it with the workload's fixtures still referenced.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// mallocs returns the cumulative heap-object allocation count. Deltas
// are meaningful only around single-goroutine sections.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// repeatSetup builds the workload's fixtures at least sz.setups times
// (up to five times as often while sz.setupBudget lasts, so that a
// millisecond set-up still gets a steady median), closing all but the last, and returns the last one
// with every build's wall time in seconds. Set-up is a metric of its own
// so that work moved out of the timed region still shows.
func repeatSetup[T any](sz sizes, build func() (T, error), closeFn func(T)) (T, []float64, error) {
	var fx T
	var secs []float64
	var spent time.Duration
	for i := 0; i < sz.setups || (i < 5*sz.setups && spent < sz.setupBudget); i++ {
		if i > 0 {
			closeFn(fx)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		fx, err = build()
		if err != nil {
			var zero T
			return zero, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}
	return fx, secs, nil
}

// loopStats is what timedLoop measured.
type loopStats struct {
	opMS []float64     // per-operation wall time, warm-ups dropped
	wall time.Duration // sum of the timed operations
	cpu  time.Duration // process CPU spent inside the timed operations
}

// timedLoop runs op(0), op(1), ... ; each call returns the interval it
// wants timed. The first warm calls are discarded, then operations are
// kept until the budget has elapsed, at least minOps were kept and the
// count is a multiple of group (operations that come in pairs finish
// the pair). A forced GC runs between operations, outside the timed
// interval, so one operation's garbage is not billed to the next.
func timedLoop(budget time.Duration, warm, minOps, group int, op func(it int) (time.Duration, error)) (loopStats, error) {
	var st loopStats
	var start time.Time
	for it := 0; ; it++ {
		if it == warm {
			start = time.Now()
		}
		runtime.GC()
		c0 := cpuNow()
		d, err := op(it)
		if err != nil {
			return st, fmt.Errorf("operation %d: %w", it, err)
		}
		if it < warm {
			continue
		}
		st.opMS = append(st.opMS, ms(d))
		st.wall += d
		st.cpu += cpuNow() - c0
		if n := len(st.opMS); n >= minOps && n%group == 0 && time.Since(start) >= budget {
			return st, nil
		}
	}
}

// reportTail prints a timing's distribution the way a reader should
// quote it: the median, and the highest percentile that still has ten
// samples beyond it, with the sample count.
func reportTail(w io.Writer, what, unit string, xs []float64) {
	asc := sorted(xs) // once: a serving run has half a million samples
	p := tailPercentile(len(asc))
	fmt.Fprintf(w, "#   %s: n=%d min=%.6g q1=%.6g p50=%.6g q3=%.6g max=%.6g %s, highest supported tail p%g=%.6g %s\n",
		what, len(asc), percentile(asc, 0), percentile(asc, 25), percentile(asc, 50), percentile(asc, 75),
		percentile(asc, 100), unit, p, percentile(asc, p), unit)
}

// fastest returns the index of the smallest value.
func fastest(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// batchMetrics turns a timed loop over a batch workload into the
// end-to-end rows; work is the work units one operation completes.
// Every operation of a batch workload does identical work, so the
// fastest one is the least disturbed measurement of it.
func batchMetrics(m map[string]sample, st loopStats, work float64) {
	n := len(st.opMS)
	best := st.opMS[fastest(st.opMS)]
	m["op_ms"] = sample{best, n}
	m["work_per_s"] = sample{work / (best / 1e3), n}
	m["host.cpu_ms_per_op"] = sample{ms(st.cpu) / float64(n), n}
}
