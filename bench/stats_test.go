package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns: the repeatability criterion is checked with that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.5, 3.1, 2.9, 3.0}, 2.6, 3.075},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 2000 samples: p99 is the 1980th, with 20 beyond it.
	if v, used := tailPercentile(seq(2000), 0.99); v != 1980 || used != 0.99 {
		t.Errorf("n=2000: got value %v at percentile %v", v, used)
	}
	// 1000 samples: the 990th has exactly 10 beyond it.
	if v, _ := tailPercentile(seq(1000), 0.99); v != 990 {
		t.Errorf("n=1000: got %v, want 990", v)
	}
	// 200 samples cannot support p99 (only 2 beyond): fall back to the
	// highest percentile with 10 beyond, the 190th = p95.
	if v, used := tailPercentile(seq(200), 0.99); v != 190 || used != 0.95 {
		t.Errorf("n=200: got value %v at percentile %v, want 190 at 0.95", v, used)
	}
	// Too few samples for any tail: the median.
	if v, _ := tailPercentile(seq(12), 0.99); v != 7 {
		t.Errorf("n=12: got %v, want the upper median 7", v)
	}
	if v, used := tailPercentile(nil, 0.99); v != 0 || used != 0 {
		t.Errorf("empty: got %v, %v", v, used)
	}
}
