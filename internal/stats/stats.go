// Package stats provides the summary statistics and error metrics used by
// the characterization and modeling layers: means and deviations of power
// profiles, and the absolute/relative error metrics the paper reports for
// model validation (Fig. 8 quotes an absolute error rate below 0.5%).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over no observations.
var ErrEmpty = errors.New("stats: empty sample")

// ErrLength is returned when paired samples have different lengths.
var ErrLength = errors.New("stats: mismatched sample lengths")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("%w: variance needs at least 2 samples, got %d", ErrEmpty, len(xs))
	}
	m, _ := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2], nil
	}
	return (cp[n/2-1] + cp[n/2]) / 2, nil
}

// AbsRelError returns |predicted-actual| / |actual|. It returns an error for
// a zero actual value, where relative error is undefined.
func AbsRelError(predicted, actual float64) (float64, error) {
	if actual == 0 {
		return 0, errors.New("stats: relative error undefined for zero actual value")
	}
	return math.Abs(predicted-actual) / math.Abs(actual), nil
}

// MAPE returns the mean absolute percentage error (in percent) between
// paired predictions and actuals.
func MAPE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, fmt.Errorf("%w: %d predictions vs %d actuals", ErrLength, len(predicted), len(actual))
	}
	if len(actual) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for i := range actual {
		re, err := AbsRelError(predicted[i], actual[i])
		if err != nil {
			return 0, fmt.Errorf("stats: MAPE at index %d: %w", i, err)
		}
		s += re
	}
	return 100 * s / float64(len(actual)), nil
}

// MaxAPE returns the maximum absolute percentage error (in percent).
func MaxAPE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, fmt.Errorf("%w: %d predictions vs %d actuals", ErrLength, len(predicted), len(actual))
	}
	if len(actual) == 0 {
		return 0, ErrEmpty
	}
	var mx float64
	for i := range actual {
		re, err := AbsRelError(predicted[i], actual[i])
		if err != nil {
			return 0, fmt.Errorf("stats: MaxAPE at index %d: %w", i, err)
		}
		if re > mx {
			mx = re
		}
	}
	return 100 * mx, nil
}

// Summary bundles the descriptive statistics of one sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	m, _ := Mean(xs)
	sd := 0.0
	if len(xs) > 1 {
		sd, _ = StdDev(xs)
	}
	min, max, _ := MinMax(xs)
	med, _ := Median(xs)
	return Summary{N: len(xs), Mean: m, StdDev: sd, Min: min, Max: max, Median: med}, nil
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g med=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}
