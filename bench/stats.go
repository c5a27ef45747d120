package main

import (
	"math"
	"sort"
)

// sample is one reported number: the statistic and how many
// observations it was taken over (1 for a plain measurement).
type sample struct {
	Value float64
	N     int
}

// one wraps a single measurement.
func one(v float64) sample { return sample{Value: v, N: 1} }

// sorted returns an ascending copy, leaving the caller's order intact.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th (0..100) percentile of an ascending
// slice by linear interpolation between closest ranks; 0 for no data.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	if p <= 0 {
		return asc[0]
	}
	if p >= 100 {
		return asc[len(asc)-1]
	}
	pos := p / 100 * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(asc) {
		return asc[lo]
	}
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

// median returns the 50th percentile of xs (any order).
func median(xs []float64) sample {
	return sample{Value: percentile(sorted(xs), 50), N: len(xs)}
}

// pct returns the p-th percentile of xs (any order).
func pct(xs []float64, p float64) sample {
	return sample{Value: percentile(sorted(xs), p), N: len(xs)}
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	return percentile(s, 25), percentile(s, 50), percentile(s, 75)
}

// tailLadder lists the percentiles tailPercentile chooses from.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it: the tail a sample of
// that size can support. Below twenty samples only the median is left.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(1-p/100) >= 10, without the rounding of p/100
			best = p
		}
	}
	return best
}

// relDiff returns (b-a)/a, the change of b relative to a. Equal values
// (0 and 0 included) are 0; a move away from 0 is +Inf.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}
