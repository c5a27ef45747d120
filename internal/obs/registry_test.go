package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"fattree/internal/des"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.Max(3)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge.Max(3) lowered the value to %d", got)
	}
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Errorf("gauge.Max(9) = %d, want 9", got)
	}
}

// TestNilSafety drives every handle and sink through a nil receiver;
// the contract is that disabled observability costs a nil check and
// nothing else, so none of these may panic.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	g.Max(1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram recorded something")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil {
		t.Error("nil registry handed out a live handle")
	}
	if hh, err := r.Histogram("x", []float64{1}); hh != nil || err != nil {
		t.Error("nil registry handed out a live histogram")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var tr *Tracer
	tr.ProcessName(1, "x")
	tr.ThreadName(1, 2, "x")
	tr.Instant(1, 2, 3, "x")
	tr.Complete(1, 2, 3, 4, "x")
	tr.Counter(1, 2, "x")
	if tr.Close() != nil {
		t.Error("nil tracer not inert")
	}
	var s *Sampler
	s.Series("x", func(_ des.Time, buf []float64) []float64 { return buf })
	s.Reset()
	s.Start(nil)
	s.Record(1)
	if s.Flush() != nil {
		t.Error("nil sampler not inert")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h, err := newHistogram([]float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	// An observation equal to a bound belongs to that bound's bucket;
	// anything above the last bound overflows.
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.5, 0}, {1, 0},
		{1.0000001, 1}, {2, 1},
		{2.5, 2}, {5, 2},
		{5.0001, 3}, {100, 3}, {math.Inf(1), 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := make([]uint64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
}

func TestHistogramInvalidBounds(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Histogram("empty", nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := r.Histogram("desc", []float64{2, 1}); err == nil {
		t.Error("descending bounds accepted")
	}
	if _, err := r.Histogram("dup", []float64{1, 1}); err == nil {
		t.Error("duplicate bounds accepted")
	}
	h1 := r.MustHistogram("ok", []float64{1, 2})
	h2 := r.MustHistogram("ok", []float64{9, 10, 11}) // bounds ignored on reuse
	if h1 != h2 {
		t.Error("same name produced two histograms")
	}
}

func TestHistogramSum(t *testing.T) {
	h, _ := newHistogram([]float64{10})
	for _, v := range []float64{1.5, 2.5, 6} {
		h.Observe(v)
	}
	if got := h.Sum(); math.Abs(got-10) > 1e-12 {
		t.Errorf("sum = %v, want 10", got)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	r.Gauge("depth").Set(4)
	r.MustHistogram("lat", []float64{1, 10}).Observe(3)
	var b1, b2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("snapshot JSON not deterministic:\n%s\n%s", b1.String(), b2.String())
	}
	var decoded Snapshot
	if err := json.Unmarshal(b1.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(decoded.Counters, map[string]int64{"a": 1, "b": 2}) {
		t.Errorf("counters decoded as %v", decoded.Counters)
	}
	if decoded.Histograms["lat"].Counts[1] != 1 {
		t.Errorf("histogram decoded as %+v", decoded.Histograms["lat"])
	}
}

// TestConcurrentUpdatesAndSnapshots hammers one registry from many
// goroutines while snapshots are taken — meaningful under -race, and
// the totals must still balance.
func TestConcurrentUpdatesAndSnapshots(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("total")
	h := r.MustHistogram("dist", []float64{10, 100})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i % 150))
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	var buckets uint64
	for i := 0; i < 3; i++ {
		buckets += h.counts[i].Load()
	}
	if buckets != h.Count() {
		t.Errorf("bucket sum %d != count %d", buckets, h.Count())
	}
}

// TestHistogramQuantiles pins the bucket-interpolated estimator against
// distributions whose quantiles are known exactly.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()

	// Uniform 1..100 into decade buckets: every bucket (lo, lo+10] holds
	// ten observations, so linear interpolation recovers the true
	// quantiles exactly: p50 = 50, p95 = 95, p99 = 99.
	u := r.MustHistogram("uniform", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		u.Observe(float64(v))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.10, 10}, {1, 100},
	} {
		if got := quantile(u, tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("uniform q%.2f = %v, want %v", tc.q, got, tc.want)
		}
	}

	// Point mass: 1000 observations of the value 3 in bucket (2, 4].
	// Every quantile lands in that bucket; interpolation positions p50
	// mid-bucket and p99 near its upper edge.
	p := r.MustHistogram("point", []float64{2, 4, 8})
	for i := 0; i < 1000; i++ {
		p.Observe(3)
	}
	if got := quantile(p, 0.5); got <= 2 || got > 4 {
		t.Errorf("point-mass p50 = %v, want within (2,4]", got)
	}

	// Overflow clamps to the last bound.
	o := r.MustHistogram("over", []float64{1, 2})
	o.Observe(100)
	o.Observe(200)
	if got := quantile(o, 0.99); got != 2 {
		t.Errorf("overflow p99 = %v, want clamp to 2", got)
	}

	// Empty histogram and nil receiver report 0.
	e := r.MustHistogram("empty", []float64{1})
	if got := quantile(e, 0.5); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
	var nilH *Histogram
	if got := quantile(nilH, 0.5); got != 0 {
		t.Errorf("nil p50 = %v", got)
	}

	// Snapshots precompute p50/p95/p99 and round-trip through JSON.
	snap := r.Snapshot()
	hs := snap.Histograms["uniform"]
	if hs.P50 != 50 || hs.P95 != 95 || hs.P99 != 99 {
		t.Errorf("snapshot quantiles = %v/%v/%v, want 50/95/99", hs.P50, hs.P95, hs.P99)
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Histograms["uniform"].P95; got != 95 {
		t.Errorf("round-tripped p95 = %v", got)
	}
	if got := back.Histograms["uniform"].Quantile(0.25); math.Abs(got-25) > 1e-9 {
		t.Errorf("recomputed q0.25 from parsed snapshot = %v, want 25", got)
	}
}

// TestHistogramQuantileSkewed checks the estimator against a geometric
// pile-up in the lowest buckets, the shape message latencies take.
func TestHistogramQuantileSkewed(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("skew", []float64{1, 2, 5, 10, 100})
	// 900 observations in (0,1], 90 in (1,2], 9 in (2,5], 1 in (5,10].
	for i := 0; i < 900; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 90; i++ {
		h.Observe(1.5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(3)
	}
	h.Observe(7)
	// p50: rank 500 of 1000 inside the first bucket -> 500/900 of (0,1].
	if got, want := quantile(h, 0.5), 500.0/900.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("skew p50 = %v, want %v", got, want)
	}
	// p95: rank 950, 50 into the 90-count bucket (1,2].
	if got, want := quantile(h, 0.95), 1+50.0/90.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("skew p95 = %v, want %v", got, want)
	}
	// p99: rank 990 is exactly the cumulative edge of bucket (1,2].
	if got := quantile(h, 0.99); math.Abs(got-2) > 1e-9 {
		t.Errorf("skew p99 = %v, want 2", got)
	}
}
