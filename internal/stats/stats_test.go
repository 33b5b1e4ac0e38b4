package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Sum(xs) != 10 {
		t.Errorf("Sum = %v, want 10", Sum(xs))
	}
	m, err := Mean(xs)
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v (%v), want 2.5", m, err)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-4.571428571428571) > 1e-12 {
		t.Errorf("Variance = %v", v)
	}
	sd, _ := StdDev(xs)
	if math.Abs(sd-math.Sqrt(v)) > 1e-12 {
		t.Errorf("StdDev = %v", sd)
	}
	if _, err := Variance([]float64{1}); !errors.Is(err, ErrEmpty) {
		t.Errorf("Variance of 1 sample err = %v, want ErrEmpty", err)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v (%v)", min, max, err)
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("MinMax(nil) err = %v", err)
	}
}

func TestMedian(t *testing.T) {
	if m, _ := Median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v, want 3", m)
	}
	if m, _ := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Median mutated input: %v", xs)
	}
	if _, err := Median(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Median(nil) err = %v", err)
	}
}

func TestErrorMetrics(t *testing.T) {
	re, err := AbsRelError(101, 100)
	if err != nil || math.Abs(re-0.01) > 1e-12 {
		t.Errorf("AbsRelError = %v (%v)", re, err)
	}
	if _, err := AbsRelError(1, 0); err == nil {
		t.Error("AbsRelError with zero actual should error")
	}
	m, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil || math.Abs(m-10) > 1e-12 {
		t.Errorf("MAPE = %v (%v), want 10", m, err)
	}
	mx, err := MaxAPE([]float64{110, 99}, []float64{100, 100})
	if err != nil || math.Abs(mx-10) > 1e-12 {
		t.Errorf("MaxAPE = %v (%v), want 10", mx, err)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLength) {
		t.Errorf("MAPE length err = %v", err)
	}
	if _, err := MAPE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("MAPE empty err = %v", err)
	}
	if _, err := MaxAPE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("MaxAPE empty err = %v", err)
	}
	if _, err := MaxAPE([]float64{1}, []float64{0}); err == nil {
		t.Error("MaxAPE with zero actual should error")
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err == nil {
		t.Error("MAPE with zero actual should error")
	}
	if _, err := MaxAPE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLength) {
		t.Errorf("MaxAPE length err = %v", err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
	one, err := Summarize([]float64{7})
	if err != nil || one.StdDev != 0 {
		t.Errorf("single-sample summary = %+v (%v)", one, err)
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	// min <= mean <= max for any non-empty sample.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		m, _ := Mean(xs)
		min, max, _ := MinMax(xs)
		return m >= min-1e-6 && m <= max+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
