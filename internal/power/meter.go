package power

import (
	"fmt"
	"math"

	"insituviz/internal/units"
)

// Profile is what a meter reports: one average-power sample per reporting
// interval, the format both the Raritan PDUs and the Appro cage monitors
// produce (the paper's meters report once per minute, averaging multiple
// internal measurements within each interval).
type Profile struct {
	Start    units.Seconds // start of the first interval
	Interval units.Seconds // reporting period
	Powers   []units.Watts // average power of each interval
	// LastPartial is the fraction (0 < f <= 1] of the final interval that
	// was actually observed; 1 when the trace ended on an interval
	// boundary.
	LastPartial float64
}

// Validate checks the profile invariants: a positive reporting interval,
// at least one sample, and LastPartial in (0, 1]. A LastPartial of 0 —
// the zero value of a hand-built Profile — would silently drop the final
// sample from Duration, Energy, and Average, and a LastPartial above 1
// would charge the final sample more time than one interval; both are
// construction errors, reported here instead of surfacing as quietly
// wrong integrals. NaN — the typical residue of dividing by a zero
// meter period when the observed window is shorter than one interval —
// is rejected too: NaN slips through ordered comparisons, and downstream
// it would silently drop the final sample from every attribution while
// poisoning the window total. Meter.Sample and SumProfiles only produce
// valid profiles.
func (p *Profile) Validate() error {
	if p.Interval <= 0 {
		return fmt.Errorf("power: profile has non-positive interval %v", p.Interval)
	}
	if len(p.Powers) == 0 {
		return fmt.Errorf("power: empty profile")
	}
	if math.IsNaN(p.LastPartial) || p.LastPartial <= 0 || p.LastPartial > 1 {
		return fmt.Errorf("power: profile LastPartial %g outside (0, 1] (0 usually means the field was never set)", p.LastPartial)
	}
	return nil
}

// LastFraction returns LastPartial clamped to [0, 1] (NaN clamps to 0),
// the fraction Duration, Energy, WriteCSV, and trace.Attribute weight
// the final sample by. Clamping keeps the integrals mutually consistent
// even on profiles that fail Validate.
func (p *Profile) LastFraction() float64 {
	switch {
	case !(p.LastPartial >= 0): // negative or NaN
		return 0
	case p.LastPartial > 1:
		return 1
	}
	return p.LastPartial
}

// lastFrac is the internal alias of LastFraction.
func (p *Profile) lastFrac() float64 { return p.LastFraction() }

// Duration returns the observed time span.
func (p *Profile) Duration() units.Seconds {
	if len(p.Powers) == 0 {
		return 0
	}
	n := float64(len(p.Powers)-1) + p.lastFrac()
	return units.Seconds(n * float64(p.Interval))
}

// Average returns the time-weighted mean power of the profile. Invalid
// profiles (see Validate) are rejected rather than silently averaged over
// the wrong window.
func (p *Profile) Average() (units.Watts, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	dur := p.Duration()
	if dur <= 0 {
		return 0, fmt.Errorf("power: profile has zero duration")
	}
	return units.Watts(float64(p.Energy()) / float64(dur)), nil
}

// Energy integrates the reported profile: each sample contributes
// power x interval (the paper's energy computation from its measured
// average-power profiles), the final sample weighted by LastPartial
// (clamped to [0, 1] so Energy and Duration always agree; call Validate
// to detect an out-of-range LastPartial explicitly).
func (p *Profile) Energy() units.Joules {
	var e units.Joules
	for i, w := range p.Powers {
		frac := 1.0
		if i == len(p.Powers)-1 {
			frac = p.lastFrac()
		}
		e += units.Energy(w, units.Seconds(float64(p.Interval)*frac))
	}
	return e
}

// Values returns the samples as float64 watts, for statistics.
func (p *Profile) Values() []float64 {
	out := make([]float64, len(p.Powers))
	for i, w := range p.Powers {
		out[i] = float64(w)
	}
	return out
}

// Meter converts a ground-truth trace into a reported profile.
type Meter struct {
	// Interval is the reporting period; the paper's PDUs and cage monitors
	// report once per minute (their fastest setting).
	Interval units.Seconds
	// Name identifies the meter in reports (e.g. "storage-pdu", "cage07").
	Name string
}

// Sample reads the trace and produces the reported profile: the exact
// average power over each reporting interval starting at the trace start.
// Within-interval variation is invisible to the consumer, exactly as with
// the physical meters.
func (m Meter) Sample(tr *Trace) (*Profile, error) {
	if m.Interval <= 0 {
		return nil, fmt.Errorf("power: meter %q has non-positive interval %v", m.Name, m.Interval)
	}
	start, end := tr.Start(), tr.End()
	if end <= start {
		return nil, fmt.Errorf("power: meter %q: empty trace", m.Name)
	}
	p := &Profile{Start: start, Interval: m.Interval, LastPartial: 1}
	for t0 := start; t0 < end; t0 += m.Interval {
		t1 := t0 + m.Interval
		if t1 > end {
			p.LastPartial = float64(end-t0) / float64(m.Interval)
			t1 = end
		}
		avg, err := tr.AverageOver(t0, t1)
		if err != nil {
			return nil, err
		}
		p.Powers = append(p.Powers, avg)
	}
	return p, nil
}

// SumProfiles adds profiles sample-by-sample (e.g. the 15 cage monitors
// covering the compute cluster, or compute plus storage). The profiles must
// be aligned: same start, interval, sample count, and final-interval
// coverage — which is what meters watching the same run produce.
func SumProfiles(profiles ...*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("power: no profiles to sum")
	}
	first := profiles[0]
	if err := first.Validate(); err != nil {
		return nil, fmt.Errorf("power: profile 0: %w", err)
	}
	out := &Profile{
		Start:       first.Start,
		Interval:    first.Interval,
		Powers:      make([]units.Watts, len(first.Powers)),
		LastPartial: first.LastPartial,
	}
	for i, p := range profiles {
		if p.Interval != out.Interval {
			return nil, fmt.Errorf("power: profile %d interval %v != %v", i, p.Interval, out.Interval)
		}
		if p.Start != out.Start {
			return nil, fmt.Errorf("power: profile %d starts at %v, want %v", i, p.Start, out.Start)
		}
		if len(p.Powers) != len(out.Powers) || p.LastPartial != out.LastPartial {
			return nil, fmt.Errorf("power: profile %d not aligned (%d samples, partial %g; want %d, %g)",
				i, len(p.Powers), p.LastPartial, len(out.Powers), out.LastPartial)
		}
		for k, w := range p.Powers {
			out.Powers[k] += w
		}
	}
	return out, nil
}
