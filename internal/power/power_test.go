package power

import (
	"math"
	"math/rand"
	"testing"

	"insituviz/internal/units"
)

func mustAppend(t *testing.T, tr *Trace, a, b float64, p float64) {
	t.Helper()
	if err := tr.Append(units.Seconds(a), units.Seconds(b), units.Watts(p)); err != nil {
		t.Fatal(err)
	}
}

func TestTraceAppendValidation(t *testing.T) {
	tr := &Trace{}
	if err := tr.Append(-1, 5, 100); err == nil {
		t.Error("negative start accepted")
	}
	if err := tr.Append(5, 4, 100); err == nil {
		t.Error("end before start accepted")
	}
	if err := tr.Append(0, 5, -3); err == nil {
		t.Error("negative power accepted")
	}
	mustAppend(t, tr, 0, 5, 100)
	if err := tr.Append(6, 8, 100); err == nil {
		t.Error("gap accepted")
	}
	if err := tr.Append(4, 8, 100); err == nil {
		t.Error("overlap accepted")
	}
}

func TestTraceMergesEqualPower(t *testing.T) {
	tr := &Trace{}
	mustAppend(t, tr, 0, 5, 100)
	mustAppend(t, tr, 5, 10, 100)
	mustAppend(t, tr, 10, 10, 999) // zero-length dropped
	mustAppend(t, tr, 10, 12, 200)
	segs := tr.segments
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2 (merge failed)", len(segs))
	}
	if segs[0].End != 10 || segs[0].Power != 100 {
		t.Errorf("merged segment = %+v", segs[0])
	}
}

func TestTraceAtAndBounds(t *testing.T) {
	tr := &Trace{}
	mustAppend(t, tr, 10, 20, 100)
	mustAppend(t, tr, 20, 30, 300)
	if tr.Start() != 10 || tr.End() != 30 {
		t.Errorf("bounds = [%v, %v]", tr.Start(), tr.End())
	}
	cases := []struct {
		t    float64
		want float64
	}{
		{5, 0}, {10, 100}, {15, 100}, {19.999, 100}, {20, 300}, {29, 300}, {30, 0}, {99, 0},
	}
	for _, c := range cases {
		if got := tr.At(units.Seconds(c.t)); float64(got) != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	empty := &Trace{}
	if empty.Start() != 0 || empty.End() != 0 || empty.At(5) != 0 {
		t.Error("empty trace behavior wrong")
	}
}

func TestTraceEnergyAndAverage(t *testing.T) {
	tr := &Trace{}
	mustAppend(t, tr, 0, 60, 1000)  // 60 kJ
	mustAppend(t, tr, 60, 120, 500) // 30 kJ
	if got := tr.Energy(); got != 90000 {
		t.Errorf("Energy = %v, want 90 kJ", got)
	}
	avg, err := tr.AverageOver(0, 120)
	if err != nil || avg != 750 {
		t.Errorf("AverageOver = %v (%v), want 750", avg, err)
	}
	// Window straddling a boundary.
	avg, err = tr.AverageOver(30, 90)
	if err != nil || avg != 750 {
		t.Errorf("straddling AverageOver = %v (%v), want 750", avg, err)
	}
	// Window beyond the trace counts as zero power.
	avg, err = tr.AverageOver(60, 180)
	if err != nil || avg != 250 {
		t.Errorf("overhanging AverageOver = %v (%v), want 250", avg, err)
	}
	if _, err := tr.AverageOver(10, 10); err == nil {
		t.Error("empty window accepted")
	}
}

func TestSumTraces(t *testing.T) {
	compute := &Trace{}
	mustAppend(t, compute, 0, 100, 44000)
	storage := &Trace{}
	mustAppend(t, storage, 0, 50, 2273)
	mustAppend(t, storage, 50, 100, 2302)
	total := SumTraces(compute, storage)
	if got := total.At(25); got != 46273 {
		t.Errorf("sum at 25s = %v", got)
	}
	if got := total.At(75); got != 46302 {
		t.Errorf("sum at 75s = %v", got)
	}
	wantE := compute.Energy() + storage.Energy()
	if got := total.Energy(); math.Abs(float64(got-wantE)) > 1e-6 {
		t.Errorf("sum energy = %v, want %v", got, wantE)
	}
	if empty := SumTraces(); empty.End() != 0 {
		t.Error("empty sum not empty")
	}
}

func TestSumTracesDisjointExtents(t *testing.T) {
	a := &Trace{}
	mustAppend(t, a, 0, 10, 100)
	b := &Trace{}
	mustAppend(t, b, 20, 30, 200)
	total := SumTraces(a, b)
	if got := total.At(5); got != 100 {
		t.Errorf("At(5) = %v", got)
	}
	if got := total.At(15); got != 0 {
		t.Errorf("At(15) = %v, want 0 in the gap", got)
	}
	if got := total.At(25); got != 200 {
		t.Errorf("At(25) = %v", got)
	}
	if got := total.Energy(); got != 3000 {
		t.Errorf("Energy = %v, want 3000", got)
	}
}

func TestMeterSamplesExactAverages(t *testing.T) {
	// 90 s at 1 kW then 90 s at 2 kW, sampled per minute:
	// minute 1 = 1000, minute 2 = (30*1000 + 30*2000)/60 = 1500, minute 3 = 2000.
	tr := &Trace{}
	mustAppend(t, tr, 0, 90, 1000)
	mustAppend(t, tr, 90, 180, 2000)
	m := Meter{Interval: units.Minutes(1), Name: "pdu"}
	p, err := m.Sample(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Powers) != 3 {
		t.Fatalf("samples = %d, want 3", len(p.Powers))
	}
	want := []float64{1000, 1500, 2000}
	for i, w := range want {
		if float64(p.Powers[i]) != w {
			t.Errorf("sample %d = %v, want %v", i, p.Powers[i], w)
		}
	}
	if p.LastPartial != 1 {
		t.Errorf("LastPartial = %v, want 1", p.LastPartial)
	}
	if p.Duration() != 180 {
		t.Errorf("Duration = %v", p.Duration())
	}
	avg, err := p.Average()
	if err != nil || avg != 1500 {
		t.Errorf("Average = %v (%v)", avg, err)
	}
	if got := p.Energy(); got != tr.Energy() {
		t.Errorf("profile energy %v != trace energy %v", got, tr.Energy())
	}
}

func TestMeterPartialFinalInterval(t *testing.T) {
	tr := &Trace{}
	mustAppend(t, tr, 0, 90, 1200) // 1.5 minutes
	m := Meter{Interval: units.Minutes(1), Name: "pdu"}
	p, err := m.Sample(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Powers) != 2 {
		t.Fatalf("samples = %d, want 2", len(p.Powers))
	}
	if p.LastPartial != 0.5 {
		t.Errorf("LastPartial = %v, want 0.5", p.LastPartial)
	}
	if p.Duration() != 90 {
		t.Errorf("Duration = %v, want 90", p.Duration())
	}
	if got := p.Energy(); got != tr.Energy() {
		t.Errorf("profile energy %v != trace energy %v", got, tr.Energy())
	}
}

func TestMeterQuantizationHidesShortSpikes(t *testing.T) {
	// A 6-second spike inside a minute is visible only as a raised
	// average — the reason the paper cannot see sub-minute power events.
	tr := &Trace{}
	mustAppend(t, tr, 0, 30, 1000)
	mustAppend(t, tr, 30, 36, 11000)
	mustAppend(t, tr, 36, 60, 1000)
	m := Meter{Interval: units.Minutes(1), Name: "pdu"}
	p, err := m.Sample(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Powers) != 1 {
		t.Fatalf("samples = %d", len(p.Powers))
	}
	if float64(p.Powers[0]) != 2000 {
		t.Errorf("averaged spike = %v, want 2000", p.Powers[0])
	}
	// But energy is still exact for piecewise traces aligned to the window.
	if p.Energy() != tr.Energy() {
		t.Errorf("energy mismatch: %v vs %v", p.Energy(), tr.Energy())
	}
}

func TestMeterValidation(t *testing.T) {
	m := Meter{Interval: 0, Name: "bad"}
	tr := &Trace{}
	mustAppend(t, tr, 0, 10, 1)
	if _, err := m.Sample(tr); err == nil {
		t.Error("zero interval accepted")
	}
	good := Meter{Interval: units.Minutes(1), Name: "ok"}
	if _, err := good.Sample(&Trace{}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestProfileEdgeCases(t *testing.T) {
	p := &Profile{Interval: 60}
	if _, err := p.Average(); err == nil {
		t.Error("empty profile average accepted")
	}
	if p.Duration() != 0 {
		t.Error("empty profile duration != 0")
	}
	if p.Energy() != 0 {
		t.Error("empty profile energy != 0")
	}
	p.Powers = []units.Watts{100, 200}
	p.LastPartial = 1
	vals := p.Values()
	if len(vals) != 2 || vals[1] != 200 {
		t.Errorf("Values = %v", vals)
	}
}

func TestSumProfiles(t *testing.T) {
	a := &Profile{Interval: 60, Powers: []units.Watts{100, 200}, LastPartial: 1}
	b := &Profile{Interval: 60, Powers: []units.Watts{10, 20}, LastPartial: 1}
	s, err := SumProfiles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.Powers[0] != 110 || s.Powers[1] != 220 {
		t.Errorf("sum = %v", s.Powers)
	}
	if _, err := SumProfiles(); err == nil {
		t.Error("empty sum accepted")
	}
	c := &Profile{Interval: 30, Powers: []units.Watts{1, 2}, LastPartial: 1}
	if _, err := SumProfiles(a, c); err == nil {
		t.Error("mismatched interval accepted")
	}
	d := &Profile{Interval: 60, Powers: []units.Watts{1}, LastPartial: 1}
	if _, err := SumProfiles(a, d); err == nil {
		t.Error("mismatched length accepted")
	}
	e := &Profile{Interval: 60, Start: 30, Powers: []units.Watts{1, 2}, LastPartial: 1}
	if _, err := SumProfiles(a, e); err == nil {
		t.Error("mismatched start accepted")
	}
}

func TestMeterEnergyMatchesTraceProperty(t *testing.T) {
	// For any piecewise-constant trace, the metered profile's energy must
	// equal the ground-truth energy exactly when meter windows tile the
	// trace: per-interval averages are exact integrals.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		tr := &Trace{}
		t0 := 0.0
		for i := 0; i < 1+rng.Intn(20); i++ {
			d := rng.Float64()*200 + 1
			p := rng.Float64() * 50000
			if err := tr.Append(units.Seconds(t0), units.Seconds(t0+d), units.Watts(p)); err != nil {
				t.Fatal(err)
			}
			t0 += d
		}
		prof, err := Meter{Interval: units.Minutes(1), Name: "x"}.Sample(tr)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(float64(prof.Energy()-tr.Energy())) / float64(tr.Energy()); rel > 1e-9 {
			t.Fatalf("trial %d: profile energy off by %g", trial, rel)
		}
	}
}

func TestSumTracesLinearityProperty(t *testing.T) {
	// Energy of a sum equals the sum of energies.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		mk := func() *Trace {
			tr := &Trace{}
			t0 := rng.Float64() * 50
			for i := 0; i < 1+rng.Intn(8); i++ {
				d := rng.Float64()*100 + 1
				tr.Append(units.Seconds(t0), units.Seconds(t0+d), units.Watts(rng.Float64()*1000))
				t0 += d
			}
			return tr
		}
		a, b, c := mk(), mk(), mk()
		total := SumTraces(a, b, c)
		want := a.Energy() + b.Energy() + c.Energy()
		if math.Abs(float64(total.Energy()-want)) > 1e-6*math.Max(1, float64(want)) {
			t.Fatalf("trial %d: sum energy %v, want %v", trial, total.Energy(), want)
		}
	}
}

// TestProfileValidate pins the LastPartial contract: Duration/Energy used
// to weight the final sample by LastPartial unchecked, so a zero value
// (the zero value of a hand-built Profile) silently dropped the sample
// and a value above one over-charged it, while Average divided the two —
// three different answers from one bad field. Validate now rejects both,
// Average refuses invalid profiles, and Energy/Duration clamp identically
// so they always stay mutually consistent.
func TestProfileValidate(t *testing.T) {
	good := &Profile{Interval: 60, Powers: []units.Watts{100}, LastPartial: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	cases := []struct {
		name string
		p    *Profile
	}{
		{"zero LastPartial", &Profile{Interval: 60, Powers: []units.Watts{100}}},
		{"LastPartial above 1", &Profile{Interval: 60, Powers: []units.Watts{100}, LastPartial: 1.5}},
		{"negative LastPartial", &Profile{Interval: 60, Powers: []units.Watts{100}, LastPartial: -0.1}},
		{"no samples", &Profile{Interval: 60, LastPartial: 1}},
		{"non-positive interval", &Profile{Powers: []units.Watts{100}, LastPartial: 1}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := tc.p.Average(); err == nil {
			t.Errorf("%s: Average accepted", tc.name)
		}
	}
}

// TestProfileClampConsistency: even on invalid profiles, Energy and
// Duration clamp LastPartial the same way, so Energy/Duration is still a
// well-defined mean (Average itself refuses, but downstream arithmetic
// that calls the two directly must not diverge).
func TestProfileClampConsistency(t *testing.T) {
	for _, lp := range []float64{-0.5, 0, 1, 1.5} {
		p := &Profile{Interval: 10, Powers: []units.Watts{100, 100}, LastPartial: lp}
		wantFrac := lp
		if wantFrac < 0 {
			wantFrac = 0
		}
		if wantFrac > 1 {
			wantFrac = 1
		}
		wantDur := units.Seconds((1 + wantFrac) * 10)
		if p.Duration() != wantDur {
			t.Errorf("LastPartial %g: Duration = %v, want %v", lp, p.Duration(), wantDur)
		}
		wantE := units.Joules(float64(wantDur) * 100)
		if p.Energy() != wantE {
			t.Errorf("LastPartial %g: Energy = %v, want %v", lp, p.Energy(), wantE)
		}
	}
}

// TestSumProfilesRejectsInvalidFirst: SumProfiles copies alignment from
// profiles[0], so an invalid first profile must be rejected, not
// propagated into the sum.
func TestSumProfilesRejectsInvalidFirst(t *testing.T) {
	bad := &Profile{Interval: 60, Powers: []units.Watts{1}} // LastPartial unset
	ok := &Profile{Interval: 60, Powers: []units.Watts{1}, LastPartial: 1}
	if _, err := SumProfiles(bad, ok); err == nil {
		t.Error("invalid first profile accepted")
	}
}
