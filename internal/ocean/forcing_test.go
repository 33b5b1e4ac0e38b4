package ocean

import (
	"math"
	"testing"
)

func TestTopographyValidation(t *testing.T) {
	md := testModel(t, 2, Config{})
	if err := md.SetTopography(make([]float64, 3)); err == nil {
		t.Error("mis-sized topography accepted")
	}
	bad := make([]float64, md.Mesh.NCells())
	bad[4] = math.NaN()
	if err := md.SetTopography(bad); err == nil {
		t.Error("NaN topography accepted")
	}
	good := make([]float64, md.Mesh.NCells())
	good[0] = 100
	if err := md.SetTopography(good); err != nil {
		t.Fatal(err)
	}
	got := md.Topography()
	if got[0] != 100 {
		t.Error("topography not stored")
	}
	got[0] = 999
	if md.Topography()[0] != 100 {
		t.Error("Topography aliases internal storage")
	}
	if err := md.SetTopography(nil); err != nil || md.Topography() != nil {
		t.Error("clearing topography failed")
	}
}

func TestWellBalancedRestOverRidge(t *testing.T) {
	// A resting fluid with a flat free surface over topography must stay
	// at rest: h = H0 - b, u = 0 is an exact steady state of the
	// free-surface pressure formulation.
	md := testModel(t, 3, Config{})
	ridge, err := RidgeTopography(md, math.Pi/6, -math.Pi/2, 1.0/9, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.SetTopography(ridge); err != nil {
		t.Fatal(err)
	}
	const H0 = 5960 // standard isolated-mountain test depth
	s := NewState(md.Mesh.NCells(), md.Mesh.NEdges())
	for ci := range s.Thickness {
		s.Thickness[ci] = H0 - ridge[ci]
		if s.Thickness[ci] <= 0 {
			t.Fatalf("ridge punctures the surface at cell %d", ci)
		}
	}
	dt := md.SuggestedTimestep(H0)
	for i := 0; i < 20; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	}
	if u := s.MaxAbsVelocity(); u > 1e-8 {
		t.Errorf("rest over ridge developed %g m/s — not well balanced", u)
	}
}

func TestRidgeTopographyShape(t *testing.T) {
	md := testModel(t, 2, Config{})
	ridge, err := RidgeTopography(md, 0.5, 1.0, 0.2, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// The peak is at the cell nearest the ridge center.
	peakCell := md.Mesh.NearestCell(md.Mesh.Cells[0].Center, 0)
	peak := 0.0
	for ci, b := range ridge {
		if b > peak {
			peak, peakCell = b, ci
		}
		if b < 0 || b > 1500 {
			t.Fatalf("ridge value %g out of range at cell %d", b, ci)
		}
	}
	lat := md.Mesh.Cells[peakCell].Lat
	lon := md.Mesh.Cells[peakCell].Lon
	if math.Abs(lat-0.5) > 0.2 || math.Abs(lon-1.0) > 0.2 {
		t.Errorf("ridge peak at (%v, %v), want near (0.5, 1.0)", lat, lon)
	}
	if _, err := RidgeTopography(md, 0, 0, 0, 100); err == nil {
		t.Error("zero width accepted")
	}
}

func TestBottomDragDecaysEnergy(t *testing.T) {
	md := testModel(t, 3, Config{})
	if err := md.SetBottomDrag(-1); err == nil {
		t.Error("negative drag accepted")
	}
	if err := md.SetBottomDrag(1e-5); err != nil {
		t.Fatal(err)
	}
	u0, h0 := tc2(md)
	s, err := SteadyZonalFlow(md, u0, h0)
	if err != nil {
		t.Fatal(err)
	}
	dt := md.SuggestedTimestep(h0)
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	prev := md.TotalEnergyFrom(s, d)
	for i := 0; i < 30; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	}
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	after := md.TotalEnergyFrom(s, d)
	if after >= prev {
		t.Errorf("drag did not decay energy: %g -> %g", prev, after)
	}
	// Decay magnitude is in the right ballpark: kinetic energy decays at
	// ~2r, and KE is a small part of the total, so just require a
	// noticeable drop.
	if (prev-after)/prev < 1e-6 {
		t.Errorf("decay too small: %g", (prev-after)/prev)
	}
}

func TestWindSpinsUpFromRest(t *testing.T) {
	md := testModel(t, 3, Config{Viscosity: 1e5})
	md.SetZonalWind(TradeWindProfile(1e-5))
	if err := md.SetBottomDrag(1e-6); err != nil {
		t.Fatal(err)
	}
	s, err := RestState(md, 5000)
	if err != nil {
		t.Fatal(err)
	}
	dt := md.SuggestedTimestep(5000)
	for i := 0; i < 40; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckFinite(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	u := s.MaxAbsVelocity()
	if u <= 0.01 {
		t.Errorf("wind failed to spin up flow: max |u| = %g", u)
	}
	if u > 50 {
		t.Errorf("unphysical spin-up: %g m/s", u)
	}
	// Clearing the wind stops the forcing.
	md.SetZonalWind(nil)
	if md.windAccel != nil {
		t.Error("wind not cleared")
	}
}

func TestTradeWindProfileShape(t *testing.T) {
	f := TradeWindProfile(1e-5)
	// Easterlies at the equator, westerlies near 60 degrees.
	if f(0) >= 0 {
		t.Errorf("equator wind = %g, want easterly (negative)", f(0))
	}
	if f(math.Pi/3) <= 0 {
		t.Errorf("60N wind = %g, want westerly (positive)", f(math.Pi/3))
	}
}
