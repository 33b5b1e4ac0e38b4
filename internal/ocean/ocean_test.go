package ocean

import (
	"math"
	"testing"

	"insituviz/internal/mesh"
	"insituviz/internal/telemetry"
	"insituviz/internal/trace"
)

func testModel(t testing.TB, subdiv int, cfg Config) *Model {
	t.Helper()
	m, err := mesh.NewIcosphere(subdiv, mesh.EarthRadius)
	if err != nil {
		t.Fatal(err)
	}
	md, err := NewModel(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

// tc2 returns the standard Williamson test case 2 parameters.
func tc2(md *Model) (u0, h0 float64) {
	u0 = 2 * math.Pi * md.Mesh.Radius / (12 * 86400)
	h0 = 2.94e4 / Gravity
	return u0, h0
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, Config{}); err == nil {
		t.Error("nil mesh accepted")
	}
	m, _ := mesh.NewIcosphere(1, mesh.EarthRadius)
	if _, err := NewModel(m, Config{Viscosity: -1}); err == nil {
		t.Error("negative viscosity accepted")
	}
	md, err := NewModel(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if md.Omega != EarthOmega {
		t.Errorf("Omega = %g, want EarthOmega", md.Omega)
	}
}

func TestStateHelpers(t *testing.T) {
	s := NewState(3, 4)
	s.Thickness[0] = 1
	c := s.Clone()
	c.Thickness[0] = 9
	if s.Thickness[0] != 1 {
		t.Error("Clone aliases storage")
	}
	if err := s.CheckFinite(); err != nil {
		t.Errorf("finite state flagged: %v", err)
	}
	s.Thickness[2] = math.NaN()
	if err := s.CheckFinite(); err == nil {
		t.Error("NaN thickness not flagged")
	}
	s.Thickness[2] = 0
	s.NormalVelocity[0] = math.Inf(1)
	if err := s.CheckFinite(); err == nil {
		t.Error("Inf velocity not flagged")
	}
	s.NormalVelocity[0] = -7
	if got := s.MaxAbsVelocity(); got != 7 {
		t.Errorf("MaxAbsVelocity = %v, want 7", got)
	}
}

func TestRestStateStaysAtRest(t *testing.T) {
	md := testModel(t, 2, Config{})
	s, err := RestState(md, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := md.Step(s, 600); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MaxAbsVelocity(); got > 1e-10 {
		t.Errorf("rest state developed velocity %g", got)
	}
	for ci, h := range s.Thickness {
		if math.Abs(h-1000) > 1e-8 {
			t.Fatalf("rest state thickness drifted to %g at cell %d", h, ci)
		}
	}
	if _, err := RestState(md, 0); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestMassConservation(t *testing.T) {
	md := testModel(t, 3, Config{})
	u0, h0 := tc2(md)
	s, err := SteadyZonalFlow(md, u0, h0)
	if err != nil {
		t.Fatal(err)
	}
	mass0 := md.TotalMass(s)
	dt := md.SuggestedTimestep(h0)
	if dt <= 0 {
		t.Fatalf("SuggestedTimestep = %g", dt)
	}
	for i := 0; i < 20; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	}
	mass1 := md.TotalMass(s)
	if rel := math.Abs(mass1-mass0) / mass0; rel > 1e-12 {
		t.Errorf("mass drift %g, want machine precision", rel)
	}
}

func TestSteadyZonalFlowStaysSteady(t *testing.T) {
	// Williamson test case 2 is an exact steady solution; the discrete
	// solution should drift only at truncation-error level.
	md := testModel(t, 3, Config{})
	u0, h0 := tc2(md)
	s, err := SteadyZonalFlow(md, u0, h0)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.Clone()
	dt := md.SuggestedTimestep(h0)
	steps := int(math.Ceil(86400 / dt)) // one simulated day
	for i := 0; i < steps; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	var maxRelH float64
	for ci := range s.Thickness {
		rel := math.Abs(s.Thickness[ci]-ref.Thickness[ci]) / ref.Thickness[ci]
		if rel > maxRelH {
			maxRelH = rel
		}
	}
	if maxRelH > 0.02 {
		t.Errorf("thickness drift after 1 day = %g, want < 2%%", maxRelH)
	}
	var maxDu float64
	for ei := range s.NormalVelocity {
		if d := math.Abs(s.NormalVelocity[ei] - ref.NormalVelocity[ei]); d > maxDu {
			maxDu = d
		}
	}
	if maxDu > 0.1*u0 {
		t.Errorf("velocity drift after 1 day = %g m/s (u0=%g)", maxDu, u0)
	}
}

func TestSteadyZonalFlowValidation(t *testing.T) {
	md := testModel(t, 1, Config{})
	if _, err := SteadyZonalFlow(md, 10, 0); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := SteadyZonalFlow(md, 3000, 10); err == nil {
		t.Error("outcropping flow accepted")
	}
}

func TestVelocityReconstruction(t *testing.T) {
	// For the solid-body flow u = u0 cos(lat) * east, the reconstructed
	// cell velocities must match the analytic field closely.
	md := testModel(t, 3, Config{})
	u0 := 40.0
	s := zonalFlowState(md.Mesh,
		func(lat float64) float64 { return u0 * math.Cos(lat) },
		func(lat float64) float64 { return 1000 },
	)
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for ci := range md.Mesh.Cells {
		c := &md.Mesh.Cells[ci]
		east, _ := mesh.TangentBasis(c.Center)
		want := east.Scale(u0 * math.Cos(c.Lat))
		err := d.CellVelocity[ci].Sub(want).Norm()
		if err > worst {
			worst = err
		}
	}
	if worst > 0.05*u0 {
		t.Errorf("worst reconstruction error = %g m/s (u0=%g)", worst, u0)
	}
}

func TestSolidBodyVorticity(t *testing.T) {
	// Relative vorticity of u = u0 cos(lat) * east is 2 u0 sin(lat) / R.
	md := testModel(t, 4, Config{})
	u0 := 40.0
	s := zonalFlowState(md.Mesh,
		func(lat float64) float64 { return u0 * math.Cos(lat) },
		func(lat float64) float64 { return 1000 },
	)
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	scale := 2 * u0 / md.Mesh.Radius
	var worst float64
	for vi := range md.Mesh.Vertices {
		lat, _ := md.Mesh.Vertices[vi].Pos.LatLon()
		want := 2 * u0 * math.Sin(lat) / md.Mesh.Radius
		if e := math.Abs(d.Vorticity[vi] - want); e > worst {
			worst = e
		}
	}
	if worst > 0.05*scale {
		t.Errorf("worst vorticity error = %g (scale %g)", worst, scale)
	}
}

func TestSolidBodyDivergenceFree(t *testing.T) {
	md := testModel(t, 4, Config{})
	u0 := 40.0
	s := zonalFlowState(md.Mesh,
		func(lat float64) float64 { return u0 * math.Cos(lat) },
		func(lat float64) float64 { return 1000 },
	)
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	scale := u0 / md.Mesh.Radius
	for ci, div := range d.Divergence {
		if math.Abs(div) > 0.05*scale {
			t.Fatalf("cell %d: divergence %g exceeds 5%% of u0/R=%g", ci, div, scale)
		}
	}
}

func TestKineticEnergyMatchesField(t *testing.T) {
	md := testModel(t, 3, Config{})
	u0 := 40.0
	s := zonalFlowState(md.Mesh,
		func(lat float64) float64 { return u0 * math.Cos(lat) },
		func(lat float64) float64 { return 1000 },
	)
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for ci := range md.Mesh.Cells {
		u := u0 * math.Cos(md.Mesh.Cells[ci].Lat)
		want := u * u / 2
		if e := math.Abs(d.KineticEnergy[ci] - want); e > worst {
			worst = e
		}
	}
	if worst > 0.1*u0*u0/2 {
		t.Errorf("worst KE error = %g (scale %g)", worst, u0*u0/2)
	}
}

func TestOkuboWeissSolidBody(t *testing.T) {
	// Solid-body rotation is pure rotation: W = -omega^2 <= 0 away from
	// the equator, and strongly negative near the poles.
	md := testModel(t, 4, Config{})
	u0 := 40.0
	s := zonalFlowState(md.Mesh,
		func(lat float64) float64 { return u0 * math.Cos(lat) },
		func(lat float64) float64 { return 1000 },
	)
	w := md.OkuboWeiss(s)
	scale := math.Pow(2*u0/md.Mesh.Radius, 2)
	negHighLat := 0
	totalHighLat := 0
	for ci, wi := range w {
		if wi > 0.1*scale {
			t.Fatalf("cell %d: W = %g, strain detected in pure rotation (scale %g)", ci, wi, scale)
		}
		if math.Abs(md.Mesh.Cells[ci].Lat) > 1.0 {
			totalHighLat++
			if wi < -0.5*scale*math.Pow(math.Sin(md.Mesh.Cells[ci].Lat), 2) {
				negHighLat++
			}
		}
	}
	if totalHighLat == 0 || negHighLat < totalHighLat*8/10 {
		t.Errorf("rotation-dominated high-latitude cells: %d of %d", negHighLat, totalHighLat)
	}
}

func TestOkuboWeissThreshold(t *testing.T) {
	w := []float64{-4, -2, 0, 2, 4}
	th := OkuboWeissThreshold(w)
	if th >= 0 {
		t.Errorf("threshold = %g, want negative", th)
	}
	if OkuboWeissThreshold(nil) != 0 {
		t.Error("empty field threshold should be 0")
	}
}

func TestEnergyNearConservation(t *testing.T) {
	md := testModel(t, 3, Config{})
	u0, h0 := tc2(md)
	s, err := SteadyZonalFlow(md, u0, h0)
	if err != nil {
		t.Fatal(err)
	}
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	e0 := md.TotalEnergyFrom(s, d)
	dt := md.SuggestedTimestep(h0)
	for i := 0; i < 40; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	}
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	e1 := md.TotalEnergyFrom(s, d)
	if rel := math.Abs(e1-e0) / e0; rel > 0.01 {
		t.Errorf("energy drift %g over 40 steps, want < 1%%", rel)
	}
}

func TestUnstableJetInit(t *testing.T) {
	md := testModel(t, 3, Config{Viscosity: 1e5})
	cfg := DefaultGalewsky()
	s, err := UnstableJet(md, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mean depth must match the configured value.
	var num, den float64
	for ci := range md.Mesh.Cells {
		num += s.Thickness[ci] * md.Mesh.Cells[ci].Area
		den += md.Mesh.Cells[ci].Area
	}
	mean := num / den
	if math.Abs(mean-cfg.MeanDepth) > 1.0 {
		t.Errorf("mean depth = %g, want %g", mean, cfg.MeanDepth)
	}
	// The jet peaks inside the band and vanishes outside it.
	var maxU float64
	for ei := range md.Mesh.Edges {
		if a := math.Abs(s.NormalVelocity[ei]); a > maxU {
			maxU = a
		}
	}
	if maxU < 0.5*cfg.UMax || maxU > 1.1*cfg.UMax {
		t.Errorf("peak edge velocity = %g, want near %g", maxU, cfg.UMax)
	}
	for ei := range md.Mesh.Edges {
		if md.Mesh.Edges[ei].Lat < cfg.Lat0-0.1 && md.Mesh.Edges[ei].Lat > -math.Pi/4 {
			if math.Abs(s.NormalVelocity[ei]) > 1e-9 {
				t.Fatalf("jet leaks south of Lat0 at edge %d: %g", ei, s.NormalVelocity[ei])
			}
		}
	}
}

func TestUnstableJetZeroConfigUsesDefaults(t *testing.T) {
	md := testModel(t, 2, Config{})
	s, err := UnstableJet(md, GalewskyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckFinite(); err != nil {
		t.Fatal(err)
	}
}

func TestUnstableJetValidation(t *testing.T) {
	md := testModel(t, 1, Config{})
	bad := DefaultGalewsky()
	bad.MeanDepth = -1
	if _, err := UnstableJet(md, bad); err == nil {
		t.Error("negative depth accepted")
	}
	bad = DefaultGalewsky()
	bad.Lat0, bad.Lat1 = bad.Lat1, bad.Lat0
	if _, err := UnstableJet(md, bad); err == nil {
		t.Error("inverted jet band accepted")
	}
}

func TestUnstableJetEvolvesStably(t *testing.T) {
	md := testModel(t, 3, Config{Viscosity: 2e5})
	s, err := UnstableJet(md, DefaultGalewsky())
	if err != nil {
		t.Fatal(err)
	}
	mass0 := md.TotalMass(s)
	dt := md.SuggestedTimestep(10000)
	for i := 0; i < 60; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckFinite(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if rel := math.Abs(md.TotalMass(s)-mass0) / mass0; rel > 1e-12 {
		t.Errorf("mass drift %g", rel)
	}
	if maxU := s.MaxAbsVelocity(); maxU > 300 {
		t.Errorf("velocity blew up to %g m/s", maxU)
	}
}

func TestStepValidation(t *testing.T) {
	md := testModel(t, 1, Config{})
	s, _ := RestState(md, 100)
	if err := md.Step(s, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if err := md.Step(s, -1); err == nil {
		t.Error("negative dt accepted")
	}
	bad := NewState(1, 1)
	out := NewState(1, 1)
	if err := md.Tendency(s, out); err == nil {
		t.Error("mis-sized tendency output accepted")
	}
	if err := md.Tendency(s, nil); err == nil {
		t.Error("nil tendency output accepted")
	}
	// A mis-sized input state is an error at every entry point, never an
	// index-out-of-range panic.
	if err := md.Step(bad, 60); err == nil {
		t.Error("mis-sized Step state accepted")
	}
	if err := md.Tendency(bad, NewState(md.Mesh.NCells(), md.Mesh.NEdges())); err == nil {
		t.Error("mis-sized tendency input accepted")
	}
	if err := md.ComputeDiagnosticsInto(bad, md.NewDiagnostics()); err == nil {
		t.Error("mis-sized diagnostics input accepted")
	}
	if err := md.OkuboWeissInto(bad, make([]float64, md.Mesh.NCells())); err == nil {
		t.Error("mis-sized Okubo-Weiss input accepted")
	}
}

func TestSuggestedTimestep(t *testing.T) {
	md := testModel(t, 2, Config{})
	if md.SuggestedTimestep(0) != 0 {
		t.Error("zero depth should give zero dt")
	}
	dtShallow := md.SuggestedTimestep(100)
	dtDeep := md.SuggestedTimestep(10000)
	if dtDeep >= dtShallow {
		t.Errorf("deeper fluid should demand a smaller dt: %g vs %g", dtDeep, dtShallow)
	}
}

// BenchmarkStep642Cells runs with telemetry attached and -benchmem
// semantics on: the reported allocs/op must stay 0 with the step counter
// and sampled span live (the PR 2 acceptance gate).
func BenchmarkStep642Cells(b *testing.B) {
	md := testModel(b, 3, Config{Viscosity: 1e5, Telemetry: telemetry.NewRegistry()})
	s, err := UnstableJet(md, DefaultGalewsky())
	if err != nil {
		b.Fatal(err)
	}
	dt := md.SuggestedTimestep(10000)
	// Warm up the lazily allocated scratch so allocs/op measures the
	// steady state.
	if err := md.Step(s, dt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := md.Step(s, dt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep642CellsTraced reruns the gate above with a trace lane
// recording a span per step: allocs/op must still read 0, proving the
// tracer's hot path adds nothing to the solver loop.
func BenchmarkStep642CellsTraced(b *testing.B) {
	md := testModel(b, 3, Config{Viscosity: 1e5, Telemetry: telemetry.NewRegistry()})
	s, err := UnstableJet(md, DefaultGalewsky())
	if err != nil {
		b.Fatal(err)
	}
	dt := md.SuggestedTimestep(10000)
	if err := md.Step(s, dt); err != nil {
		b.Fatal(err)
	}
	lane := trace.New(trace.Options{LaneCapacity: 4 * 1024}).Lane("solver")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lane.Begin("sim.step")
		err := md.Step(s, dt)
		lane.End()
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOkuboWeiss2562Cells(b *testing.B) {
	md := testModel(b, 4, Config{})
	u0, h0 := tc2(md)
	s, err := SteadyZonalFlow(md, u0, h0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md.OkuboWeiss(s)
	}
}

func TestCellVorticityMatchesAnalytic(t *testing.T) {
	// Solid-body rotation: cell vorticity = 2 u0 sin(lat) / R.
	md := testModel(t, 4, Config{})
	u0 := 40.0
	s := zonalFlowState(md.Mesh,
		func(lat float64) float64 { return u0 * math.Cos(lat) },
		func(lat float64) float64 { return 1000 },
	)
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	cv := md.CellVorticityFrom(d, nil)
	scale := 2 * u0 / md.Mesh.Radius
	var worst float64
	for ci := range md.Mesh.Cells {
		want := 2 * u0 * math.Sin(md.Mesh.Cells[ci].Lat) / md.Mesh.Radius
		if e := math.Abs(cv[ci] - want); e > worst {
			worst = e
		}
	}
	if worst > 0.05*scale {
		t.Errorf("worst cell vorticity error = %g (scale %g)", worst, scale)
	}
}

func TestRossbyHaurwitzWave(t *testing.T) {
	// Williamson test case 6: the wave must be physically sized, have a
	// wavenumber-4 height pattern along the equator-adjacent latitudes,
	// and evolve stably with exact mass conservation.
	md := testModel(t, 3, Config{Viscosity: 1e5})
	s, err := RossbyHaurwitzWave(md)
	if err != nil {
		t.Fatal(err)
	}
	// Height stays within the published bounds (~8000-10500 m).
	for ci, h := range s.Thickness {
		if h < 7000 || h > 11500 {
			t.Fatalf("cell %d: h = %g outside the physical band", ci, h)
		}
	}
	// Wavenumber-4 signature: along a mid-latitude ring, h(lon) and
	// h(lon + pi/2) nearly coincide (the pattern has period pi/2).
	var worst float64
	count := 0
	for ci := range md.Mesh.Cells {
		c := &md.Mesh.Cells[ci]
		if math.Abs(c.Lat-0.6) > 0.08 {
			continue
		}
		count++
		shifted := md.Mesh.NearestCell(mesh.FromLatLon(c.Lat, c.Lon+math.Pi/2), ci)
		diff := math.Abs(s.Thickness[ci] - s.Thickness[shifted])
		if diff > worst {
			worst = diff
		}
	}
	if count == 0 {
		t.Fatal("no ring cells sampled")
	}
	// The grid is coarse, so allow a generous tolerance relative to the
	// ~1500 m wave amplitude.
	if worst > 300 {
		t.Errorf("wave-4 periodicity violated by %g m over %d cells", worst, count)
	}

	mass0 := md.TotalMass(s)
	dt := md.SuggestedTimestep(8000)
	for i := 0; i < 40; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckFinite(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if rel := math.Abs(md.TotalMass(s)-mass0) / mass0; rel > 1e-12 {
		t.Errorf("mass drift %g", rel)
	}
	if u := s.MaxAbsVelocity(); u > 200 {
		t.Errorf("wave blew up to %g m/s", u)
	}
}

func TestPotentialVorticityRestState(t *testing.T) {
	// At rest, q = f/h exactly.
	md := testModel(t, 3, Config{})
	s, err := RestState(md, 4000)
	if err != nil {
		t.Fatal(err)
	}
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	pv := md.PotentialVorticityFrom(s, d, nil)
	for vi := range md.Mesh.Vertices {
		lat, _ := md.Mesh.Vertices[vi].Pos.LatLon()
		want := 2 * md.Omega * math.Sin(lat) / 4000
		if math.Abs(pv[vi]-want) > 1e-15+1e-9*math.Abs(want) {
			t.Fatalf("vertex %d: PV = %g, want %g", vi, pv[vi], want)
		}
	}
}

func TestPotentialVorticityNearlyConserved(t *testing.T) {
	// The global extrema of PV should not grow materially during a short
	// inviscid evolution (advection rearranges but does not create PV).
	md := testModel(t, 3, Config{})
	u0, h0 := tc2(md)
	s, err := SteadyZonalFlow(md, u0, h0)
	if err != nil {
		t.Fatal(err)
	}
	d := md.NewDiagnostics()
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	pv0 := md.PotentialVorticityFrom(s, d, nil)
	min0, max0, _ := minMax(pv0)
	dt := md.SuggestedTimestep(h0)
	for i := 0; i < 30; i++ {
		if err := md.Step(s, dt); err != nil {
			t.Fatal(err)
		}
	}
	if err := md.ComputeDiagnosticsInto(s, d); err != nil {
		t.Fatal(err)
	}
	pv1 := md.PotentialVorticityFrom(s, d, nil)
	min1, max1, _ := minMax(pv1)
	span := max0 - min0
	if max1 > max0+0.02*span || min1 < min0-0.02*span {
		t.Errorf("PV range grew: [%g, %g] -> [%g, %g]", min0, max0, min1, max1)
	}
}

func minMax(xs []float64) (min, max float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
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
	return min, max, true
}
