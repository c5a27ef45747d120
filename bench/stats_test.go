package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // order must not matter
	if got := median(xs); got.Value != 5 || got.N != 5 {
		t.Errorf("median = %+v, want 5 over 5 samples", got)
	}
	if got := median([]float64{1, 2, 3, 4}).Value; got != 2.5 {
		t.Errorf("even-count median = %g, want 2.5", got)
	}
	q1, q2, q3 := quartiles(xs)
	if q1 != 3 || q2 != 5 || q3 != 7 {
		t.Errorf("quartiles = %g %g %g, want 3 5 7", q1, q2, q3)
	}
	if xs[0] != 9 {
		t.Error("median sorted the caller's slice")
	}
	if got := median(nil); got.Value != 0 || got.N != 0 {
		t.Errorf("median of nothing = %+v, want zero", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {90, 46}, {100, 50}, {-5, 10}, {120, 50},
	} {
		if got := percentile(asc, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestRelDiff(t *testing.T) {
	if got := relDiff(100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("relDiff(100,110) = %g, want 0.10", got)
	}
	if got := relDiff(0, 0); got != 0 {
		t.Errorf("relDiff(0,0) = %g, want 0", got)
	}
	if got := relDiff(0, 3); !math.IsInf(got, 1) {
		t.Errorf("relDiff(0,3) = %g, want +Inf", got)
	}
}
