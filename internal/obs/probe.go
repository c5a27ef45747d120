package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"fattree/internal/des"
)

// Sampler emits time-series probes as JSONL: at every interval of
// simulated time it evaluates each registered series and writes one
// record per series,
//
//	{"t_ps":1200000,"series":"link_util","values":[0.5,0,...]}
//
// plus whatever summary records the owner appends via Record. The
// sampler drives itself on a des.Scheduler as daemon events: ticks run
// only while regular simulation work remains queued, so the sampler
// never keeps a finished simulation alive, never advances the clock
// past the last real event, and leaves Stats.Duration untouched.
//
// Series callbacks run on the scheduler's goroutine, so they may read
// simulator state without synchronization. The sampler itself is
// mutex-protected, so Flush and Record may be called from elsewhere.
// All methods are nil-safe no-ops.
type Sampler struct {
	mu       sync.Mutex
	w        *bufio.Writer
	interval des.Time
	series   []probeSeries
	scratch  []float64
	err      error
}

type probeSeries struct {
	name string
	// fn fills buf (capacity-reused across ticks) with the series'
	// current values and returns it.
	fn func(now des.Time, buf []float64) []float64
}

// sampleRecord is the JSONL schema of one probe sample.
type sampleRecord struct {
	T      int64     `json:"t_ps"`
	Series string    `json:"series"`
	Values []float64 `json:"values"`
}

// NewSampler creates a sampler writing JSONL to w every interval of
// simulated time. A non-positive interval defaults to 1 microsecond.
func NewSampler(w io.Writer, interval des.Time) *Sampler {
	if interval <= 0 {
		interval = des.Microsecond
	}
	return &Sampler{w: bufio.NewWriter(w), interval: interval}
}

// Series registers a named probe. Owners re-registering for a fresh run
// should call Reset first.
func (s *Sampler) Series(name string, fn func(now des.Time, buf []float64) []float64) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.series = append(s.series, probeSeries{name: name, fn: fn})
}

// Reset drops all registered series (the output stream is kept).
func (s *Sampler) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.series = nil
}

// Start samples now and schedules subsequent ticks on sched as daemon
// events, so the sampler stops with the simulation: a tick queued past
// the last regular event is discarded by the scheduler. Call again
// after loading more work (e.g. per barrier stage) to resume.
func (s *Sampler) Start(sched *des.Scheduler) {
	if s == nil || sched == nil {
		return
	}
	var tick func()
	tick = func() {
		s.sample(sched.Now())
		sched.AfterDaemon(s.interval, tick)
	}
	tick()
}

// Sample evaluates every registered series at the given instant and
// writes their records. Owners call it once at the end of a run: the
// scheduler discards daemon ticks queued past the last regular event,
// so without a final explicit sample the end state would go unrecorded.
func (s *Sampler) Sample(now des.Time) {
	if s == nil {
		return
	}
	s.sample(now)
}

func (s *Sampler) sample(now des.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	for _, p := range s.series {
		s.scratch = p.fn(now, s.scratch[:0])
		s.writeLocked(sampleRecord{T: int64(now), Series: p.name, Values: s.scratch})
	}
}

// Record appends an arbitrary JSONL record (e.g. a final registry
// snapshot) to the probe stream. v must be JSON-serializable.
func (s *Sampler) Record(v interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.writeLocked(v)
}

func (s *Sampler) writeLocked(v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Flush drains buffered output and reports the first error seen.
func (s *Sampler) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.w.Flush(); s.err == nil {
		s.err = ferr
	}
	return s.err
}
