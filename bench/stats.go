package main

import (
	"math"
	"sort"

	"insituviz/internal/stats"
)

// median is stats.Median with 0 for an empty sample: a phase in which
// every operation failed has no timings, and the failure count already
// says so.
func median(xs []float64) float64 {
	m, _ := stats.Median(xs)
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the rule the repeatability criterion is checked with. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// minTailSamples is how many samples must lie beyond a reported
// percentile for it to mean anything.
const minTailSamples = 10

// tailPercentile returns the q'th percentile of a sorted sample — or, when
// fewer than minTailSamples lie beyond it, the highest percentile that
// still has that many beyond — together with the percentile actually
// used. With too few samples to leave a tail at all it falls back to the
// median.
func tailPercentile(sorted []float64, q float64) (v, used float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if n-1-idx < minTailSamples {
		idx = n - 1 - minTailSamples
	}
	idx = max(idx, n/2)
	return sorted[idx], float64(idx+1) / float64(n)
}
