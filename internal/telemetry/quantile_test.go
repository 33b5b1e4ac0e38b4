package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestQuantileInterpolation(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{10, 20, 40})
	// 4 observations in (10, 20]: ranks spread uniformly across the
	// bucket, so q walks linearly from 10 to 20.
	for i := 0; i < 4; i++ {
		h.Observe(15)
	}
	cases := []struct{ q, want float64 }{
		{0, 10},      // rank 0 -> lower edge
		{0.25, 12.5}, // rank 1 -> a quarter through [10, 20]
		{0.5, 15},
		{1, 20}, // rank 4 -> upper bound
	}
	for _, tc := range cases {
		got, err := h.value().Quantile(tc.q)
		if err != nil {
			t.Fatalf("q=%g: %v", tc.q, err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("q=%g: got %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileAcrossBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 2, 4, 8})
	// One observation per finite bucket: the median rank (2 of 4) lands
	// at the upper edge of the second bucket.
	for _, v := range []float64{0.5, 1.5, 3, 6} {
		h.Observe(v)
	}
	if got, _ := h.value().Quantile(0.5); got != 2 {
		t.Errorf("p50 = %g, want 2", got)
	}
	// p99: rank 3.96 inside the (4, 8] bucket, 96% through it.
	if got, _ := h.value().Quantile(0.99); math.Abs(got-(4+0.96*4)) > 1e-12 {
		t.Errorf("p99 = %g", got)
	}
	if got, _ := h.value().Quantile(1); got != 8 {
		t.Errorf("p100 = %g, want 8", got)
	}
}

func TestQuantileFirstBucketLowerEdge(t *testing.T) {
	reg := NewRegistry()
	// Positive bound: interpolation starts from 0.
	h := reg.Histogram("pos", []float64{10})
	h.Observe(5)
	h.Observe(5)
	if got, _ := h.value().Quantile(0.5); math.Abs(got-5) > 1e-12 {
		t.Errorf("positive first bucket p50 = %g, want 5", got)
	}
	// Negative bound: no zero edge to interpolate from; the bucket
	// degenerates to its bound.
	hn := reg.Histogram("neg", []float64{-10, 0})
	hn.Observe(-20)
	if got, _ := hn.value().Quantile(0.5); got != -10 {
		t.Errorf("negative first bucket p50 = %g, want -10", got)
	}
}

func TestQuantileInfBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{10})
	h.Observe(5)
	h.Observe(100) // lands in +Inf bucket
	// The overflow bucket has no upper edge: report the largest finite
	// bound rather than inventing a value.
	if got, err := h.value().Quantile(1); err != nil || got != 10 {
		t.Errorf("q=1 = %g (%v), want 10", got, err)
	}
	// Everything in the overflow bucket: still degenerates to the largest
	// finite bound — the estimator never invents values past the axis.
	all := reg.Histogram("allinf", []float64{10})
	all.Observe(50)
	if got, err := all.value().Quantile(0.5); err != nil || got != 10 {
		t.Errorf("all-overflow p50 = %g (%v), want 10", got, err)
	}
	// A hand-built value whose only bucket is +Inf has no axis at all.
	hv := HistogramValue{Count: 1, Buckets: []BucketCount{{UpperBound: math.Inf(1), Count: 1}}}
	if _, err := hv.Quantile(0.5); err == nil {
		t.Error("single +Inf bucket produced a quantile")
	}
}

func TestQuantileErrors(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{10})
	if _, err := h.value().Quantile(0.5); err == nil {
		t.Error("empty histogram produced a quantile")
	}
	h.Observe(5)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := h.value().Quantile(q); err == nil {
			t.Errorf("q=%g accepted", q)
		}
	}
}

// TestExpositionPercentileLines: the text exposition surfaces p50/p99
// lines for histograms with data, derived deterministically from the
// bucket counts.
func TestExpositionPercentileLines(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("step.ms", []float64{1, 10, 100})
	h.Observe(5)
	h.Observe(50)
	var sb strings.Builder
	if err := reg.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "histogram step.ms p50 ") {
		t.Errorf("missing p50 line:\n%s", out)
	}
	if !strings.Contains(out, "histogram step.ms p99 ") {
		t.Errorf("missing p99 line:\n%s", out)
	}

	// An empty histogram exposes no percentile lines (no data to
	// estimate from) but still renders its buckets.
	reg2 := NewRegistry()
	reg2.Histogram("empty", []float64{1})
	sb.Reset()
	if err := reg2.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "p50") {
		t.Errorf("empty histogram exposed percentiles:\n%s", sb.String())
	}
}
