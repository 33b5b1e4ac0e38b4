package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution: observations are counted into
// the first bucket whose upper bound is >= the value (upper bounds are
// inclusive, Prometheus-style), with an implicit +Inf overflow bucket. The
// bucket layout is fixed at registration, so Observe is a binary search
// plus one atomic increment — no allocation, safe for concurrent use.
type Histogram struct {
	bounds []float64 // strictly ascending upper bounds, excluding +Inf
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// LatencyBuckets are the upper bounds (nanoseconds) of the duration
// histograms: decade-ish steps from 1 µs to 1 s, the range between a
// warm cache hit and a cold disk read on a loaded box, which also holds
// a solver step and a visualization sample.
var LatencyBuckets = []float64{1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6, 256e6, 1e9}

// Histogram returns the histogram registered under name, creating it with
// the given ascending upper bounds on first use (later calls ignore the
// bounds argument and return the existing histogram). Returns nil on a nil
// registry. Panics on empty, unsorted, duplicated, or non-finite bounds —
// bucket layout is static configuration, so misconfiguration is a
// programming error.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.claim(name, "histogram")
	h, err := newHistogram(bounds)
	if err != nil {
		panic(fmt.Sprintf("telemetry: histogram %q: %v", name, err))
	}
	r.histograms[name] = h
	return h
}

func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("no buckets")
	}
	if !sort.Float64sAreSorted(bounds) {
		return nil, fmt.Errorf("bounds not ascending: %v", bounds)
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("non-finite bound %g", b)
		}
		if i > 0 && bounds[i-1] == b {
			return nil, fmt.Errorf("duplicate bound %g", b)
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}, nil
}

// Observe records one value. NaN observations are dropped (they have no
// place on the bucket axis). A nil Histogram ignores observations.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// First bucket with bound >= v; len(bounds) is the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observations; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations with value <= UpperBound (and greater than the previous
// bound). The final bucket has UpperBound +Inf, rendered as "+Inf" in JSON
// (math.Inf does not marshal).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramValue is a point-in-time copy of a histogram.
type HistogramValue struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation within the bucket holding the
// quantile rank — the standard fixed-bucket estimator: ranks are assumed
// uniformly spread across each bucket's [lower, upper] range. The first
// bucket interpolates from min(0, bound) and the +Inf bucket degenerates
// to the largest finite bound (there is no upper edge to interpolate
// toward). Returns an error on an empty histogram or q outside [0, 1].
func (hv HistogramValue) Quantile(q float64) (float64, error) {
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, fmt.Errorf("telemetry: quantile %g outside [0, 1]", q)
	}
	if hv.Count <= 0 {
		return 0, fmt.Errorf("telemetry: quantile of empty histogram")
	}
	rank := q * float64(hv.Count)
	var cum int64
	for i, b := range hv.Buckets {
		if b.Count == 0 {
			cum += b.Count
			continue
		}
		upper := b.UpperBound
		if float64(cum+b.Count) >= rank {
			if math.IsInf(upper, 1) {
				// No finite upper edge: report the largest finite bound
				// (or the lower edge of the overflow bucket's mass).
				if i > 0 {
					return hv.Buckets[i-1].UpperBound, nil
				}
				return 0, fmt.Errorf("telemetry: all observations in the +Inf bucket")
			}
			lower := 0.0
			if i > 0 {
				lower = hv.Buckets[i-1].UpperBound
			} else if upper < 0 {
				lower = upper
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac, nil
		}
		cum += b.Count
	}
	// Unreachable when buckets sum to Count; under a concurrent scrape
	// the buckets may momentarily undercount, so fall back to the top.
	last := hv.Buckets[len(hv.Buckets)-1]
	if math.IsInf(last.UpperBound, 1) && len(hv.Buckets) > 1 {
		return hv.Buckets[len(hv.Buckets)-2].UpperBound, nil
	}
	return last.UpperBound, nil
}

// value snapshots the histogram. The per-bucket loads are not mutually
// atomic; under concurrent observation the buckets may momentarily sum to
// slightly less than Count, which is the usual histogram-scrape contract.
func (h *Histogram) value() HistogramValue {
	hv := HistogramValue{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	for i := range h.counts {
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		hv.Buckets[i] = BucketCount{UpperBound: bound, Count: h.counts[i].Load()}
	}
	return hv
}
