package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of
// sorted: the smallest sample with at least q·n samples at or below
// it. It returns NaN for an empty slice.
func percentile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	return float64(sorted[rank])
}

// tailPercentile reports whether the q-quantile of n samples has at
// least ten samples beyond it, the rule for which percentiles a run
// may report.
func tailPercentile(n int, q float64) bool {
	rank := int(math.Ceil(q*float64(n))) - 1
	return n-1-rank >= 10
}

// median returns the median of xs (mean of the middle pair for an
// even count) without reordering xs; NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
