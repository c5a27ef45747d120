package netsim

// Live progress reporting for long sweeps. The simulator publishes
// cumulative counters into a Progress sink via daemon ticks, and a
// reporter goroutine owned by the caller reads them at wall-clock
// intervals — the reason the counters are atomics. Attaching a Progress
// never changes simulated timings; like probe ticks, the publish ticks
// are scheduler events, so only Stats.Events grows.

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"fattree/internal/des"
)

// Progress publishes live counters of running simulations. One
// Progress may span many runs on one Config (a sweep): Events,
// Delivered and Total accumulate across runs while SimTime restarts
// with each run. All methods are safe for one simulation goroutine
// publishing concurrently with any number of Snapshot readers.
type Progress struct {
	simNow    atomic.Int64
	events    atomic.Int64
	delivered atomic.Int64
	total     atomic.Int64

	// Run baselines, touched only by the simulation goroutine: counters
	// published per run are relative, Snapshot readings cumulative.
	evBase, delBase int64
}

// ProgressSnapshot is one reading of a Progress sink.
type ProgressSnapshot struct {
	SimTime   des.Time // current run's simulated clock
	Events    int64    // events executed across all runs
	Delivered int64    // messages delivered across all runs
	Total     int64    // messages loaded across all runs
}

// Snapshot reads the counters. Fields are read individually, so a
// snapshot taken mid-publish can be one tick stale per field — fine
// for progress lines, not a synchronization primitive.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		SimTime:   des.Time(p.simNow.Load()),
		Events:    p.events.Load(),
		Delivered: p.delivered.Load(),
		Total:     p.total.Load(),
	}
}

// progressInterval is the publish cadence in simulated time.
const progressInterval = 10 * des.Microsecond

// beginRun re-baselines the per-run counters at the start of a run.
func (p *Progress) beginRun() {
	p.evBase = p.events.Load()
	p.delBase = p.delivered.Load()
	p.simNow.Store(0)
}

// addTotal counts freshly loaded messages toward the ETA denominator.
func (p *Progress) addTotal(n int64) { p.total.Add(n) }

// publish stores the current run's counters (relative to the run's
// baselines). Called only from the simulation goroutine.
func (p *Progress) publish(now des.Time, events, delivered int64) {
	p.simNow.Store(int64(now))
	p.events.Store(p.evBase + events)
	p.delivered.Store(p.delBase + delivered)
}

// Report starts a goroutine that writes one progress line to w every
// wall-clock interval (default 1s) until the returned stop function is
// called. Lines carry the simulated clock, the sim-time/wall-time
// rate, the event rate, delivered/total messages and an ETA
// extrapolated from the delivery fraction.
func (p *Progress) Report(w io.Writer, every time.Duration, label string) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		start := time.Now()
		var prev ProgressSnapshot
		prevWall := start
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			s := p.Snapshot()
			now := time.Now()
			dw := now.Sub(prevWall).Seconds()
			var simRate, evRate float64
			if dw > 0 {
				simRate = float64(s.SimTime-prev.SimTime) / float64(des.Second) / dw
				evRate = float64(s.Events-prev.Events) / dw
			}
			line := fmt.Sprintf("%s: sim %.3f ms (%.1e x real time) | %s events (%s ev/s)",
				label, float64(s.SimTime)/float64(des.Millisecond), simRate,
				humanCount(s.Events), humanCount(int64(evRate)))
			if s.Total > 0 {
				line += fmt.Sprintf(" | msgs %d/%d (%.0f%%)",
					s.Delivered, s.Total, 100*float64(s.Delivered)/float64(s.Total))
				if s.Delivered > 0 && s.Delivered < s.Total {
					elapsed := now.Sub(start)
					eta := time.Duration(float64(elapsed) *
						float64(s.Total-s.Delivered) / float64(s.Delivered))
					line += fmt.Sprintf(" | eta %s", eta.Round(time.Second))
				}
			}
			fmt.Fprintln(w, line)
			prev, prevWall = s, now
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// humanCount renders a count with k/M/G suffixes for progress lines.
func humanCount(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// startProgress arms the publish tick: a self-rescheduling daemon
// event, so it dies with the stage's regular work and never extends the
// simulation.
func (nw *Network) startProgress() {
	p := nw.cfg.Progress
	if p == nil {
		return
	}
	var tick func()
	tick = func() {
		p.publish(nw.sched.Now(), int64(nw.sched.Executed()+nw.elided), nw.stats.MessagesDelivered)
		nw.sched.AfterDaemon(progressInterval, tick)
	}
	tick()
}
