package obs

import (
	"sync"
	"testing"
)

// TestQuantileEdgeCases pins the fixed-bucket estimator at its corners:
// empty histogram, a single sample, all-equal values, and values beyond
// the last bound (which clamp to it — "at least this much").
func TestQuantileEdgeCases(t *testing.T) {
	bounds := []float64{10, 100, 1000}

	t.Run("zero samples", func(t *testing.T) {
		h, _ := newHistogram(bounds)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := quantile(h, q); got != 0 {
				t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
			}
		}
	})

	t.Run("one sample", func(t *testing.T) {
		h, _ := newHistogram(bounds)
		h.Observe(42)
		// The single sample lands in (10,100]; every quantile must
		// interpolate inside that bucket, never outside it.
		for _, q := range []float64{0.01, 0.5, 0.99} {
			got := quantile(h, q)
			if got <= 10 || got > 100 {
				t.Fatalf("Quantile(%v) = %v, want within (10,100]", q, got)
			}
		}
	})

	t.Run("all equal", func(t *testing.T) {
		h, _ := newHistogram(bounds)
		for i := 0; i < 1000; i++ {
			h.Observe(50)
		}
		p50, p99 := quantile(h, 0.50), quantile(h, 0.99)
		if p50 <= 10 || p50 > 100 || p99 <= 10 || p99 > 100 {
			t.Fatalf("all-equal p50=%v p99=%v escaped the (10,100] bucket", p50, p99)
		}
		if p99 < p50 {
			t.Fatalf("p99 %v < p50 %v", p99, p50)
		}
	})

	t.Run("beyond last bucket", func(t *testing.T) {
		h, _ := newHistogram(bounds)
		for i := 0; i < 10; i++ {
			h.Observe(1e9) // overflow bucket
		}
		for _, q := range []float64{0.5, 0.99, 1} {
			if got := quantile(h, q); got != 1000 {
				t.Fatalf("overflow Quantile(%v) = %v, want clamp to 1000", q, got)
			}
		}
	})

	t.Run("quantile out of range clamps", func(t *testing.T) {
		h, _ := newHistogram(bounds)
		h.Observe(5)
		if got := quantile(h, -1); got < 0 || got > 10 {
			t.Fatalf("Quantile(-1) = %v", got)
		}
		if got := quantile(h, 2); got < 0 || got > 10 {
			t.Fatalf("Quantile(2) = %v", got)
		}
	})

	t.Run("nil receiver", func(t *testing.T) {
		var h *Histogram
		if got := quantile(h, 0.99); got != 0 {
			t.Fatalf("nil Quantile = %v", got)
		}
	})
}

// TestSnapshotQuantileSelfConsistentUnderRace: snapshots taken while
// observations pour in from other goroutines must stay internally
// consistent (rank against the snapshot's own counts, monotone
// quantiles) — run under -race this also proves the data-race freedom
// of snapshot-while-recording.
func TestSnapshotQuantileSelfConsistentUnderRace(t *testing.T) {
	r := NewRegistry()
	h := r.MustHistogram("lat_us", DefaultREDBucketsUS)
	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			v := float64(seed + 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				v = v*1.7 + 1
				if v > 2e6 {
					v = float64(seed + 1)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		hs, ok := snap.Histograms["lat_us"]
		if !ok {
			t.Fatal("histogram missing from snapshot")
		}
		var total uint64
		for _, c := range hs.Counts {
			total += c
		}
		if !(hs.P50 <= hs.P95 && hs.P95 <= hs.P99) {
			t.Fatalf("non-monotone quantiles: p50=%v p95=%v p99=%v (n=%d)", hs.P50, hs.P95, hs.P99, total)
		}
		if total > 0 && hs.P99 <= 0 {
			t.Fatalf("p99 = %v with %d samples", hs.P99, total)
		}
	}
	close(stop)
	wg.Wait()
}

// quantile estimates h's q-quantile with the snapshot estimator, the
// way Registry.Snapshot fills P50/P95/P99; 0 on a nil histogram.
func quantile(h *Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	s := HistogramSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s.Quantile(q)
}
