// Package obs is the observability layer of the repository: a
// zero-allocation-on-hot-path metrics registry (counters, gauges,
// fixed-bucket histograms), time-series probes driven by the discrete
// event scheduler, and a structured event tracer that exports runs in
// Chrome trace-event format (openable in Perfetto / chrome://tracing).
//
// Every handle and sink in this package is nil-safe: methods on a nil
// *Counter, *Gauge, *Histogram, *Tracer or *Sampler are no-ops, so
// instrumented code can hold nil handles when observability is disabled
// and pay only a nil check on the hot path. All types are safe for
// concurrent use — counters and histograms update with atomics, so a
// snapshot can be taken from another goroutine while a simulation runs.
//
// docs/OBSERVABILITY.md documents the metric names, the probe JSONL
// schema and the trace event schema used across the repository.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 to keep the counter monotonic; negative
// deltas are ignored). No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add applies a delta. No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Max raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. An observation v lands in
// the first bucket whose upper bound satisfies v <= bound; observations
// above the last bound land in the implicit overflow bucket.
type Histogram struct {
	bounds []float64       // ascending upper bounds, immutable after creation
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly ascending at %d (%v <= %v)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}, nil
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Branchless-ish linear scan: bucket counts are small (tens), and a
	// linear scan beats sort.SearchFloat64s for those sizes while
	// allocating nothing.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations; zero on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry holds named metrics. The zero value is not usable; a nil
// *Registry hands out nil handles, making disabled instrumentation free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	gaugeFuncs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() int64),
	}
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — for values the process can always answer (goroutine count,
// uptime) without anything updating a stored gauge. fn runs with the
// registry lock held and must not call back into the registry. A
// GaugeFunc shadows a stored Gauge of the same name in snapshots.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use; later calls reuse the
// existing instance (the bounds argument is then ignored). A nil
// registry returns a nil (no-op) handle. Invalid bounds return an
// error.
func (r *Registry) Histogram(name string, bounds []float64) (*Histogram, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h, nil
	}
	h, err := newHistogram(bounds)
	if err != nil {
		return nil, err
	}
	r.hists[name] = h
	return h, nil
}

// MustHistogram is Histogram that panics on invalid bounds — for
// statically known bucket layouts.
func (r *Registry) MustHistogram(name string, bounds []float64) *Histogram {
	h, err := r.Histogram(name, bounds)
	if err != nil {
		panic(err)
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram. P50/P95/P99
// are bucket-interpolated quantile estimates (see Quantile), precomputed
// so JSONL consumers get latency percentiles without re-deriving them.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"` // len(Bounds)+1; last is overflow
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation within the containing bucket — the
// standard fixed-bucket estimator. The first bucket interpolates from a
// lower edge of 0 (every histogram in this repository observes
// non-negative values); ranks landing in the overflow bucket clamp to
// the last bound, the estimator's resolution limit. The rank is taken
// against the sum of Counts, so the estimate is self-consistent even if
// the snapshot raced a concurrent Observe. An empty histogram returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if len(s.Bounds) == 0 {
		return 0
	}
	total := 0.0
	for _, c := range s.Counts {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * total
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			return lo + (s.Bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot is a frozen, JSON-serializable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state. Safe to call while
// other goroutines keep updating metrics. A nil registry snapshots
// empty maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFuncs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		hs.P50 = hs.Quantile(0.50)
		hs.P95 = hs.Quantile(0.95)
		hs.P99 = hs.Quantile(0.99)
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as a single JSON object. Map keys are
// emitted sorted (encoding/json's behaviour), so output is
// deterministic for a given state.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}
