// Package power implements the measurement infrastructure of the study:
// piecewise-constant ground-truth power traces produced by the simulated
// machine, and the meters that observe them the way the paper's hardware
// did — Raritan-style metered PDUs and Appro cage-level monitors that
// report one averaged sample per interval (one per minute in the paper's
// setup). Energies are integrated from the reported profiles, exactly as
// the paper derives energy from its measured average-power profiles, so
// metering quantization behaves the same way as on the real racks.
package power

import (
	"fmt"
	"math"
	"slices"

	"insituviz/internal/units"
)

// The Caddy per-node calibration: the paper's 150-node cluster draws 15 kW
// idle and 44 kW fully loaded. Untyped so every consumer (the simulated
// machine, the trace power model, the live reference cost model) evaluates
// the same constant expression.
const (
	CaddyNodeIdleWatts = 100           // 15 kW / 150 nodes
	CaddyNodeBusyWatts = 44000.0 / 150 // ~293 W at full load
)

// Segment is one span of constant power draw.
type Segment struct {
	Start units.Seconds
	End   units.Seconds
	Power units.Watts
}

// Duration returns the segment length.
func (s Segment) Duration() units.Seconds { return s.End - s.Start }

// Trace is a piecewise-constant power function of simulated time, the
// ground truth a meter samples. Segments are contiguous and appended in
// time order.
type Trace struct {
	segments []Segment
}

// Append adds a constant-power span. It must start exactly where the trace
// currently ends (the first span may start anywhere at or after zero).
func (tr *Trace) Append(start, end units.Seconds, p units.Watts) error {
	if start < 0 || end < start {
		return fmt.Errorf("power: invalid segment [%v, %v]", start, end)
	}
	if p < 0 {
		return fmt.Errorf("power: negative power %v", p)
	}
	if n := len(tr.segments); n > 0 && tr.segments[n-1].End != start {
		return fmt.Errorf("power: segment starts at %v, trace ends at %v", start, tr.segments[n-1].End)
	}
	if end == start {
		return nil // zero-length spans carry no energy and are dropped
	}
	// Merge with the previous segment when the power level is unchanged.
	if n := len(tr.segments); n > 0 && tr.segments[n-1].Power == p {
		tr.segments[n-1].End = end
		return nil
	}
	tr.segments = append(tr.segments, Segment{Start: start, End: end, Power: p})
	return nil
}

// Start returns the trace's first instant (zero for an empty trace).
func (tr *Trace) Start() units.Seconds {
	if len(tr.segments) == 0 {
		return 0
	}
	return tr.segments[0].Start
}

// End returns the trace's final instant (zero for an empty trace).
func (tr *Trace) End() units.Seconds {
	if len(tr.segments) == 0 {
		return 0
	}
	return tr.segments[len(tr.segments)-1].End
}

// At returns the power at time t (zero outside the trace).
func (tr *Trace) At(t units.Seconds) units.Watts {
	// Binary search over segment starts.
	lo, hi := 0, len(tr.segments)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := tr.segments[mid]
		switch {
		case t < s.Start:
			hi = mid - 1
		case t >= s.End:
			lo = mid + 1
		default:
			return s.Power
		}
	}
	return 0
}

// Energy returns the exact integral of power over the whole trace.
func (tr *Trace) Energy() units.Joules {
	var e units.Joules
	for _, s := range tr.segments {
		e += units.Energy(s.Power, s.Duration())
	}
	return e
}

// AverageOver returns the mean power over [t0, t1] (treating time outside
// the trace as zero power).
func (tr *Trace) AverageOver(t0, t1 units.Seconds) (units.Watts, error) {
	if t1 <= t0 {
		return 0, fmt.Errorf("power: empty averaging window [%v, %v]", t0, t1)
	}
	var e units.Joules
	for _, s := range tr.segments {
		a := math.Max(float64(s.Start), float64(t0))
		b := math.Min(float64(s.End), float64(t1))
		if b > a {
			e += units.Energy(s.Power, units.Seconds(b-a))
		}
	}
	return units.Watts(float64(e) / float64(t1-t0)), nil
}

// SumTraces returns the pointwise sum of several traces — e.g. compute plus
// storage, the paper's "total average power". Traces may have different
// segmentations and extents.
func SumTraces(traces ...*Trace) *Trace {
	// Collect all breakpoints.
	var cuts []float64
	for _, tr := range traces {
		for _, s := range tr.segments {
			cuts = append(cuts, float64(s.Start), float64(s.End))
		}
	}
	if len(cuts) == 0 {
		return &Trace{}
	}
	// Sort and deduplicate.
	slices.Sort(cuts)
	uniq := cuts[:1]
	for _, c := range cuts[1:] {
		if c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	out := &Trace{}
	for i := 0; i+1 < len(uniq); i++ {
		a, b := units.Seconds(uniq[i]), units.Seconds(uniq[i+1])
		mid := units.Seconds((uniq[i] + uniq[i+1]) / 2)
		var p units.Watts
		for _, tr := range traces {
			p += tr.At(mid)
		}
		// Appending through the public API keeps the merge invariants.
		if err := out.Append(a, b, p); err != nil {
			// Unreachable by construction: cuts are sorted and contiguous.
			panic(fmt.Sprintf("power: SumTraces internal error: %v", err))
		}
	}
	return out
}
