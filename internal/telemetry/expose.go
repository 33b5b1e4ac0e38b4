package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Snapshot is a point-in-time copy of every metric in a registry, the unit
// of exposition. Both renderings are deterministic in shape: names appear
// in sorted order (encoding/json sorts map keys; WriteText sorts
// explicitly), so two snapshots holding identical values render
// byte-identically regardless of the order metrics were registered or
// updated in.
type Snapshot struct {
	Counters    map[string]int64          `json:"counters"`
	Gauges      map[string]int64          `json:"gauges"`
	FloatGauges map[string]float64        `json:"fgauges"`
	Histograms  map[string]HistogramValue `json:"histograms"`
}

// Snapshot copies the current value of every registered metric. Individual
// metric reads are atomic; the snapshot as a whole is not a consistent cut
// under concurrent updates, which is the usual scrape contract. Returns an
// empty snapshot on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:    map[string]int64{},
		Gauges:      map[string]int64{},
		FloatGauges: map[string]float64{},
		Histograms:  map[string]HistogramValue{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, g := range r.floatGauges {
		v := g.Value()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// encoding/json cannot represent non-finite numbers; one
			// poisoned gauge must not take down the whole exposition.
			v = 0
		}
		s.FloatGauges[name] = v
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.value()
	}
	return s
}

// MarshalJSON renders the bucket with an "+Inf" string upper bound for the
// overflow bucket, which encoding/json cannot represent as a number.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}{le, b.Count})
}

// UnmarshalJSON accepts the MarshalJSON encoding.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.LE == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(raw.LE, 64)
		if err != nil {
			return fmt.Errorf("telemetry: bucket bound %q: %w", raw.LE, err)
		}
		b.UpperBound = v
	}
	b.Count = raw.Count
	return nil
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline —
// the -telemetry output format of the CLIs.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: marshal snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteText writes an expvar-style plain-text exposition: one
// "kind name value" line per scalar metric in sorted name order, with
// histograms expanded into one line per component. The format is
// stable and diff-friendly; it is what the tests assert on.
func (s *Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedNames(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(s.FloatGauges) {
		if _, err := fmt.Fprintf(w, "fgauge %s %s\n", name,
			strconv.FormatFloat(s.FloatGauges[name], 'g', -1, 64)); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(s.Histograms) {
		hv := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %s count %d sum %g\n", name, hv.Count, hv.Sum); err != nil {
			return err
		}
		for _, b := range hv.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(w, "histogram %s le %s %d\n", name, le, b.Count); err != nil {
				return err
			}
		}
		// Interpolated percentiles, when the histogram has data to
		// estimate them from (deterministic: computed from the bucket
		// counts above, so equal snapshots still render identically).
		for _, pq := range [...]struct {
			label string
			q     float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			v, err := hv.Quantile(pq.q)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "histogram %s %s %s\n", name, pq.label,
				strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}
